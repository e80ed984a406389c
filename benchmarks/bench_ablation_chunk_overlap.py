"""Ablation — chunked copy/DMA overlap in the exchange (Section 4.1).

"For efficiency, the sender copies the data in several small chunks and
initiates DMA on a chunk immediately after each copy to overlap the DMA
transfer with the next round of copying."

Without the overlap, the copy (memory system, ~300 MB/s burst on the
PII for cached copies) and the DMA (120 MB/s PCI) serialize and the
effective rate collapses to their harmonic combination; with chunked
overlap the pipeline runs at the slower stage's rate minus per-chunk
invocation overhead — which is how the NIU's 120+ MB/s PCI DMA becomes
the paper's 110 MB/s delivered VI bandwidth.
"""

import pytest

from _tables import emit, format_table, mbs

COPY_BW = 300e6  # cached memcpy burst on the PII-class memory system
DMA_BW = 118e6  # StarT-X streaming DMA over 32-bit/33-MHz PCI
CHUNK_OVERHEAD = 0.36e-6 + 0.93e-6  # DMA kick (2 writes) + status poll


def serial_rate(nbytes: int) -> float:
    """Copy everything, then DMA everything."""
    t = nbytes / COPY_BW + nbytes / DMA_BW + CHUNK_OVERHEAD
    return nbytes / t


def overlapped_rate(nbytes: int, chunk: int) -> float:
    """Pipelined chunks: steady-state at the slower stage + per-chunk
    overhead; the first chunk's copy fills the pipeline."""
    n_chunks = max(1, -(-nbytes // chunk))
    t_copy = chunk / COPY_BW
    t_dma = chunk / DMA_BW + CHUNK_OVERHEAD
    t = t_copy + n_chunks * max(t_copy, t_dma)
    return nbytes / t


def test_bench_overlap_table():
    nbytes = 64 * 1024

    rows = [("no overlap (copy then DMA)", serial_rate(nbytes))]
    for chunk in (256, 1024, 2048, 8192, 32768):
        rows.append((f"overlapped, {chunk} B chunks", overlapped_rate(nbytes, chunk)))
    emit(
        "ablation_chunk_overlap",
        format_table(
            "Section 4.1 ablation - copy/DMA pipelining, 64 KB block",
            ["strategy", "effective MB/s"],
            [[name, mbs(r)] for name, r in rows],
        ),
    )
    serial = rows[0][1]
    best = max(r for _, r in rows[1:])
    # overlap recovers most of the DMA rate; serialization loses ~30 %
    assert serial < 95e6
    assert best > 105e6
    # the sweet spot reproduces the paper's 110 MB/s delivered figure
    assert overlapped_rate(nbytes, 2048) == pytest.approx(110e6, rel=0.05)


def test_bench_chunk_size_tradeoff():
    """Tiny chunks drown in per-chunk overhead; huge chunks lose the
    pipeline (first-copy latency and granularity)."""
    nbytes = 64 * 1024
    rates = {c: overlapped_rate(nbytes, c) for c in (64, 256, 2048, 65536)}
    assert rates[64] < rates[2048]
    assert rates[65536] < rates[2048]
