#!/usr/bin/env python3
"""Stand-alone network microbenchmarks on the simulated hardware.

The paper's Figs. 2, 7 and the Section 4.2 global-sum table all come
from stand-alone benchmarks of the Arctic/StarT-X stack; this example
runs the same measurements on the discrete-event cluster — ping-pong
LogP, the VI bandwidth curve, and the butterfly global-sum scaling —
and prints them next to the paper's values.

Run:  python examples/network_microbench.py
"""

from repro.collectives.des_exec import des_run_schedule, des_time_schedule
from repro.collectives.schedules import allreduce_butterfly
from repro.core.constants import FIG2_PAPER
from repro.core.logp import measure_logp
from repro.hardware.cluster import HyadesCluster
from repro.network.costmodel import ARCTIC_GSUM_MEASURED, arctic_cost_model
from repro.parallel.des_collectives import des_transfer_bandwidth

US = 1e-6


def main() -> None:
    print("=== Fig. 2: LogP of PIO messaging (measured on DES vs paper) ===")
    print(f"{'payload':>8s} {'Os':>12s} {'Or':>12s} {'RTT/2':>14s} {'Lnet':>12s}")
    for size in (8, 64):
        lp = measure_logp(size)
        p = FIG2_PAPER[size]
        print(
            f"{size:6d} B "
            f"{lp.os_ / US:5.2f} ({p[0] / US:3.1f}) "
            f"{lp.or_ / US:5.2f} ({p[1] / US:3.1f}) "
            f"{lp.half_rtt / US:6.2f} ({p[2] / US:4.1f}) "
            f"{lp.latency / US:5.2f} ({p[3] / US:3.1f})  usec"
        )

    print("\n=== Fig. 7: VI exchange bandwidth vs block size ===")
    model = arctic_cost_model()
    print(f"{'block':>9s} {'DES':>10s} {'model':>10s}")
    for s in (256, 1024, 2048, 4096, 9216, 16384, 65536, 131072):
        bw = des_transfer_bandwidth(s)
        print(f"{s:7d} B {bw / 1e6:8.1f} {model.perceived_bandwidth(s) / 1e6:8.1f}  MB/s")
    print("paper checkpoints: 56.8 MB/s @ 1 KB, 90% of 110 MB/s @ 9 KB")

    print("\n=== Section 4.2: butterfly global sum scaling ===")
    print(f"{'nodes':>6s} {'DES':>8s} {'paper':>8s}   messages")
    for n in (2, 4, 8, 16):
        butterfly = allreduce_butterfly(n, 8)
        cluster = HyadesCluster()
        t = des_time_schedule(cluster, butterfly)
        msgs = sum(cluster.niu(i).packets_sent for i in range(n))
        res, _ = des_run_schedule(
            HyadesCluster(), butterfly, [float(i) for i in range(n)]
        )
        assert all(r == res[0] for r in res), "nodes disagree!"
        print(
            f"{n:6d} {t / US:7.1f} {ARCTIC_GSUM_MEASURED[n] / US:7.1f}   "
            f"{msgs} = N log2 N  (usec)"
        )

    print("\nAll nodes finish every sum with the bitwise-identical value —")
    print("the determinism that makes tiled runs reproducible.")


if __name__ == "__main__":
    main()
