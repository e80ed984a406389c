"""Section 2.1 — PCI/host I/O microbenchmarks.

Regenerates the measured host characteristics that govern communication
performance: 8-byte mmap read latency (0.93 us), back-to-back 8-byte
mmap write gap (0.18 us), and sustained device DMA (> 120 MB/s).
"""

import pytest

from repro.niu import pci
from repro.niu.pci import PCIBus
from repro.sim import Engine

from _tables import emit, format_table, mbs, us


def measure_mmap_costs(reps: int = 100):
    """Time `reps` reads and writes through the PCI cost model."""
    eng = Engine()
    bus = PCIBus(eng)
    out = {}

    def reader():
        t0 = eng.now
        for _ in range(reps):
            yield eng.timeout(bus.mmap_read_cost())
        out["read"] = (eng.now - t0) / reps
        t1 = eng.now
        for _ in range(reps):
            yield eng.timeout(bus.mmap_write_cost())
        out["write"] = (eng.now - t1) / reps

    eng.process(reader())
    eng.run()
    return out


def measure_dma_bandwidth(nbytes: int = 1 << 20):
    eng = Engine()
    bus = PCIBus(eng)
    out = {}

    def mover():
        t0 = eng.now
        yield eng.process(bus.dma(nbytes))
        out["t"] = eng.now - t0

    eng.process(mover())
    eng.run()
    return nbytes / out["t"]


def test_bench_mmap_costs():
    res = measure_mmap_costs()
    assert res["read"] == pytest.approx(0.93e-6, rel=1e-6)
    assert res["write"] == pytest.approx(0.18e-6, rel=1e-6)


def test_bench_dma_bandwidth():
    bw = measure_dma_bandwidth()
    assert bw >= 120e6


def test_bench_sec21_table():
    res = measure_mmap_costs()
    bw = measure_dma_bandwidth()
    emit(
        "sec21_pci",
        format_table(
            "Section 2.1 - host PCI characteristics: measured (paper)",
            ["quantity", "measured", "paper"],
            [
                ["8B mmap read latency (us)", us(res["read"], 2), "0.93"],
                ["8B mmap write gap (us)", us(res["write"], 2), "0.18"],
                ["device DMA (MB/s)", mbs(bw), ">120"],
                ["PCI burst peak (MB/s)", mbs(pci.PEAK_BANDWIDTH), "132 (32-bit/33-MHz)"],
            ],
        ),
    )
