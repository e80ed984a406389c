#!/usr/bin/env python3
"""Interconnect study: "should I buy faster CPUs or a faster network?"

Reproduces the paper's Section 5.4 analysis end to end: for each
interconnect (Fast Ethernet, Gigabit Ethernet, Arctic, HPVM/Myrinet)
compute the communication times of the 2.8125-degree configuration, the
Potential Floating-Point Performance of both GCM phases, and the
verdict the PFPP metric renders — including the projected one-year-run
wall-clock under each fabric.

Run:  python examples/interconnect_study.py
"""

from repro.core.constants import ATM_PS_PARAMS, DS_PARAMS, VALIDATION
from repro.core.perf_model import DSPhaseParams, PerformanceModel, PSPhaseParams
from repro.core.pfpp import comm_terms, ds_comm_budget, pfpp_ds, pfpp_ps
from repro.network.costmodel import (
    arctic_cost_model,
    fast_ethernet_cost_model,
    gigabit_ethernet_cost_model,
)
from repro.network.myrinet import myrinet_hpvm_cost_model
from repro.parallel.tiling import Decomposition

FPS, FDS = 50e6, 60e6


def verdict(p_ps: float, p_ds: float) -> str:
    if p_ps > FPS and p_ds > FDS:
        return "compute-bound: buy faster CPUs"
    if p_ps > FPS:
        return "coarse-grain only: DS is network-bound"
    return "network-bound: faster CPUs are pointless"


def main() -> None:
    print("PFPP analysis at 2.8125 deg, 16 CPUs / 8 SMPs (paper Fig. 12)\n")
    header = (
        f"{'interconnect':20s} {'tgsum(us)':>10s} {'texchxy(us)':>12s} "
        f"{'texchxyz(us)':>13s} {'Pfpp,ps':>9s} {'Pfpp,ds':>9s}  verdict"
    )
    print(header)
    print("-" * len(header))

    models = [
        fast_ethernet_cost_model(),
        gigabit_ethernet_cost_model(),
        myrinet_hpvm_cost_model(),
        arctic_cost_model(),
    ]
    ranks = Decomposition(128, 64, 4, 4, olx=3)
    masters = Decomposition(128, 64, 2, 4, olx=1)
    year = {}
    for cm in models:
        # each fabric the way the paper measured it: the tailored one on
        # the production mapping (mix-mode, DS on the 8 SMP masters), the
        # MPI ones flat over all 16 ranks
        smp = cm.slave_bw_factor is not None
        tg, t2, t3, _ = comm_terms(
            cm, ranks, 10, ds_decomp=masters if smp else None, mixmode=smp
        )
        p_ps = pfpp_ps(ATM_PS_PARAMS.nps, ATM_PS_PARAMS.nxyz, t3)
        p_ds = pfpp_ds(DS_PARAMS.nds, DS_PARAMS.nxy, tg, t2)
        print(
            f"{cm.name:20s} {tg * 1e6:10.1f} {t2 * 1e6:12.1f} {t3 * 1e6:13.1f} "
            f"{p_ps / 1e6:8.1f}M {p_ds / 1e6:8.2f}M  {verdict(p_ps, p_ds)}"
        )
        pm = PerformanceModel(
            ps=PSPhaseParams(ATM_PS_PARAMS.nps, ATM_PS_PARAMS.nxyz, t3, FPS),
            ds=DSPhaseParams(DS_PARAMS.nds, DS_PARAMS.nxy, tg, t2, FDS),
        )
        year[cm.name] = pm.trun(VALIDATION.nt, VALIDATION.ni)

    print(f"\n(reference kernel rates: Fps = {FPS / 1e6:.0f}, Fds = {FDS / 1e6:.0f} MFlop/s)")

    budget = ds_comm_budget(DS_PARAMS.nds, DS_PARAMS.nxy, FDS)
    print(
        f"\nSection 5.4 threshold: Pfpp,ds = Fds requires tgsum + texchxy "
        f"<= {budget * 1e6:.0f} us (paper: 306 us)"
    )

    print("\nProjected one-year 2.8125-deg atmosphere run (Nt=77760, Ni=60):")
    arctic_t = year["Arctic"]
    for name, t in sorted(year.items(), key=lambda kv: kv[1]):
        print(f"  {name:20s} {t / 60:9.0f} min   ({t / arctic_t:5.1f}x Arctic)")
    print("\nThe paper's conclusion, reproduced: commodity processors beat "
          "commodity interconnects for this workload; only the system-area "
          "network sustains the fine-grain DS phase.")


if __name__ == "__main__":
    main()
