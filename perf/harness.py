"""Shared machinery of the host-time benchmark: the timed-op recorder,
the workload base class, order statistics and scratch-directory helpers.

Nothing here imports ``repro``: the workloads do that inside
:meth:`Workload.prepare`, so that importing is part of the set-up time
they report.

**Host-speed normalisation.**  The box this runs on is a small shared
VM whose effective speed moves by a factor of two and more for minutes
at a time (measured: the same 14-second run of ``gcm_production`` read
829 ms per op in one set of ten and 1545 ms in the next).  No estimator
over raw times survives that, so every timed op is bracketed by bursts
of a fixed :func:`reference_kernel`; an op's *host factor* is the
neighbouring bursts' time over :data:`REF_NOMINAL_S`, and the reported
times are raw time divided by it — "seconds on the reference host".
A nine-minute interleaved trace showed op time and kernel time moving
together (log-log slope 1.0, r = 0.95 at 15-second windows) and the
spread between windows falling from 7 % raw to 2 % normalised.  Raw
times and the factor are kept beside every normalised figure.
"""

from __future__ import annotations

import gc
import heapq
import os
import pathlib
import resource
import shutil
import statistics
import time
import traceback
import warnings
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

PERF_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parent
OUT_DIR = PERF_DIR / "out"


# -- order statistics -------------------------------------------------------


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile of a non-empty sample."""
    data = sorted(values)
    if not data:
        raise ValueError("quantile of an empty sample")
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def quartiles(values: Sequence[float]) -> tuple:
    """(q1, median, q3) exactly as ``statistics.quantiles(values, n=4)``
    gives them — the figures the acceptance rule is written in."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


# -- the reference kernel ---------------------------------------------------

#: :func:`reference_kernel` on this machine in a calm spell (median of
#: 3900 interleaved samples).  Together with the kernel itself this is
#: frozen: changing either rescales every reported time.
REF_NOMINAL_S = 5.25e-3

_REF_A = np.linspace(0.1, 1.0, 8 * 14 * 22).reshape(8, 14, 22)
_REF_C = np.linspace(1.0, 2.0, 8 * 14 * 22).reshape(8, 14, 22)
_REF_B = np.empty_like(_REF_A)


class _RefObj:
    __slots__ = ("x",)

    def __init__(self) -> None:
        self.x = 0


def reference_kernel() -> float:
    """A fixed 5 ms of work shaped like the program: a pure-Python
    arithmetic loop, small-array NumPy calls (the GCM's regime) and
    objects, generators and a heap (the event engine's)."""
    total = 0
    for i in range(60_000):
        total += i * i
    a, b, c = _REF_A, _REF_B, _REF_C
    acc = 0.0
    for _ in range(400):
        np.multiply(a, c, out=b)
        np.add(b, a, out=b)
        b[1:, :, :] -= a[:-1, :, :]
        acc += float(b.sum())
    objs = [_RefObj() for _ in range(50)]

    def walker(obj):
        for k in range(20):
            obj.x += k
            yield k

    gens = [walker(obj) for obj in objs]
    heap = [(0.0, i) for i in range(len(gens))]
    heapq.heapify(heap)
    while heap:
        t, i = heapq.heappop(heap)
        for k in gens[i]:
            heapq.heappush(heap, (t + k * 0.1 + i * 1e-3, i))
            break
    return total + acc


def reference_burst(reps: int = 1) -> float:
    """Mean seconds of ``reps`` back-to-back reference kernels."""
    t0 = time.perf_counter()
    for _ in range(reps):
        reference_kernel()
    return (time.perf_counter() - t0) / reps


def host_factor(burst_before: float, burst_after: float) -> float:
    """How much slower than the reference host the host was around an
    op bracketed by the two bursts (1.0 = the reference host)."""
    return (burst_before + burst_after) / 2.0 / REF_NOMINAL_S


def select(samples: Sequence[dict], kind: str, traced: Optional[bool] = False) -> List[dict]:
    """Successful timed samples of ``kind``; ``traced=None`` takes both
    the traced and the untraced ones."""
    return [
        s for s in samples
        if s["kind"] == kind and not s["failed"]
        and (traced is None or s["traced"] == traced)
    ]


# -- scratch space ----------------------------------------------------------


def scratch_dir(tag: str) -> pathlib.Path:
    """A fresh directory under ``perf/out/tmp`` (inside the checkout: the
    benchmark reads and writes nowhere else)."""
    path = OUT_DIR / "tmp" / f"{tag}-{os.getpid()}-{time.time_ns():x}"
    path.mkdir(parents=True, exist_ok=False)
    return path


def remove_tree(path: pathlib.Path) -> None:
    """Delete a scratch tree; leftovers are only clutter, never an error."""
    shutil.rmtree(path, ignore_errors=True)


# -- deprecation accounting -------------------------------------------------


class DeprecationCounter:
    """Counts DeprecationWarnings attributed to ``repro`` or the benchmark.

    ROADMAP item 3 deletes the ``cost_model=`` / ``tuner=`` /
    ``--engine`` spellings; a non-zero count says the benchmark (or the
    code under it) still goes through one.  Counting instead of raising
    keeps the benchmark alive when a later change deprecates something
    it calls — the count is a reported metric and a failed check.
    """

    def __init__(self) -> None:
        self.messages: List[str] = []
        self._previous: Optional[Callable] = None

    def install(self) -> None:
        warnings.simplefilter("always", DeprecationWarning)
        self._previous = warnings.showwarning
        warnings.showwarning = self._show

    def _show(self, message, category, filename, lineno, file=None, line=None):
        path = str(filename)
        ours = "/repro/" in path or str(PERF_DIR) in path
        if issubclass(category, DeprecationWarning) and ours:
            self.messages.append(f"{path}:{lineno}: {message}")
        elif self._previous is not None:
            self._previous(message, category, filename, lineno, file, line)


# -- the recorder -----------------------------------------------------------


def cpu_seconds() -> float:
    """CPU seconds of this process plus its reaped children (forked
    cold ops and service workers do their work in children)."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ru.ru_utime + ru.ru_stime


class Recorder:
    """Collects timed ops, correctness checks and exact counts of one run."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.tracing = False
        self.block = -1
        #: one dict per timed call: kind, raw wall seconds, host factor,
        #: normalised seconds ``s``, cpu seconds, ops, traced.
        self.samples: List[dict] = []
        self.attempted = 0
        self.failed = 0
        #: (name, ok, detail) — every one must hold for ``correct``.
        self.checks: List[tuple] = []
        #: exact simulated statistics (virtual seconds, events, flops...).
        self.counts: Dict[str, Any] = {}
        #: largest relative error between a cheap model and its
        #: packet-level reference seen in this run.
        self.model_err_max = 0.0
        self.model_err_n = 0
        self._op_serial = 0
        self._ref_s = 0.0
        self._ref_at = float("-inf")

    #: a reference burst older than this is measured again before an op.
    REF_MAX_AGE_S = 0.05

    def host_burst(self, reps: int = 1) -> float:
        """Take a reference burst now; returns its mean seconds."""
        self._ref_s = reference_burst(reps)
        self._ref_at = time.perf_counter()
        return self._ref_s

    def begin_block(self, traced: bool = False) -> None:
        """Start a block: collect garbage now so it is not collected
        inside a timed op, and pick whether this block is traced."""
        self.block += 1
        self.tracing = bool(traced and self.tracer is not None)
        gc.collect()

    def timed(self, fn: Callable[[], Any], kind: str = "op", ops: int = 1) -> Any:
        """Run and time ``fn`` as ``ops`` operations of ``kind``.

        An exception is a failed operation, not a crashed benchmark: it
        is recorded with its traceback and ``None`` is returned.
        """
        self.attempted += ops
        self._op_serial += 1
        if time.perf_counter() - self._ref_at > self.REF_MAX_AGE_S:
            self.host_burst()
        ref_before = self._ref_s
        root = None
        if self.tracing:
            root = self.tracer.begin_op(kind, [self.block, self._op_serial], ops)
        failed = False
        result = None
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:
            failed = True
            self.failed += ops
            self.check(
                f"{kind} #{self._op_serial} completes", False,
                f"{exc!r}\n{traceback.format_exc()}",
            )
        t1 = time.perf_counter()
        c1 = cpu_seconds()
        if root is not None:
            self.tracer.end_op(root)
        # a longer op gets a longer burst: about 4 % of its own time
        ref_after = self.host_burst(1 + min(8, int((t1 - t0) / 0.25)))
        factor = host_factor(ref_before, ref_after)
        self.samples.append({
            "kind": kind, "raw_s": t1 - t0, "host_factor": factor,
            "s": (t1 - t0) / factor, "cpu_s": c1 - c0, "ops": ops,
            "traced": self.tracing, "failed": failed,
        })
        return result

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Record one correctness check."""
        self.checks.append((name, bool(ok), detail))
        return bool(ok)

    def fail_ops(self, n: int, name: str, detail: str = "") -> None:
        """Mark ``n`` already-timed ops as failed by a later check."""
        self.failed += n
        self.check(name, False, detail)

    def model_error(self, rel_err: float) -> None:
        """Feed one cheap-model-vs-reference relative error."""
        self.model_err_n += 1
        self.model_err_max = max(self.model_err_max, float(rel_err))

    def same_every_block(self, key: str, value: Any) -> bool:
        """Check a simulated statistic repeats exactly block after block
        (the simulator is deterministic; host time is the only noise)."""
        first = self.counts.setdefault(key, value)
        return self.check(
            f"{key} identical in every block", first == value,
            f"first block {first!r}, block {self.block} {value!r}",
        )

    def values(self, kind: str, traced: Optional[bool] = False) -> List[dict]:
        """:func:`select` over this run's samples."""
        return select(self.samples, kind, traced)


# -- the workload contract --------------------------------------------------


class Workload:
    """One benchmark workload.

    A run is ``prepare()`` once (imports, construction and warm-up ops —
    the set-up a user pays before the first steady-state op), then
    ``block(rec)`` over and over until the time budget is spent, then
    ``finish(rec)``.  Every block does the *same* work from the *same*
    starting state, so a run of any length measures one mix of ops and
    the simulated statistics repeat exactly.
    """

    #: registry key; fixed by ISSUE 11.
    name = ""
    #: what one timed op is, for the printed header.
    op = ""
    #: sample kind ``ops_per_s`` is computed from.
    throughput_kind = "op"
    #: sample kind ``op_ms_p50`` is computed from.
    latency_kind = "op"
    #: fresh-process set-up repetitions per run (median is reported).
    setup_reps = 5
    #: timed ops per block, full size and under ``--smoke``.
    block_ops = 1
    smoke_block_ops = 1

    def __init__(self, seed: int = 0, smoke: bool = False) -> None:
        self.seed = int(seed)
        self.smoke = bool(smoke)

    @property
    def n_ops(self) -> int:
        """Timed ops in one block of this run."""
        return self.smoke_block_ops if self.smoke else self.block_ops

    def prepare(self) -> None:
        """Import the program, build what the ops need, run warm-up ops."""
        raise NotImplementedError

    def block(self, rec: Recorder) -> None:
        """One block of timed ops."""
        raise NotImplementedError

    def finish(self, rec: Recorder) -> None:
        """Checks that need extra, untimed work after the last block."""

    def layer_metrics(self, rec: Recorder) -> Dict[str, Optional[float]]:
        """Per-layer metrics only this workload can measure."""
        return {}

    def close(self) -> None:
        """Release scratch directories and anything else held."""


# -- cold ops in a forked child ---------------------------------------------


def run_forked(fn: Callable[[], Any], tracer=None) -> Any:
    """Run ``fn`` in a forked child and return its (pickled) result.

    The child starts with the parent's imports but with none of the
    caches ``fn`` fills, which is what "one cold invocation" means
    without paying the interpreter start and the imports again.  Spans
    the child records are appended to the parent's tracer: the child's
    span list starts as a copy of the parent's, so indices line up.
    """
    import pickle

    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            first = len(tracer.spans) if tracer is not None else 0
            try:
                payload = ("ok", fn(), tracer.spans[first:] if tracer is not None else [])
            except Exception:
                payload = ("error", traceback.format_exc(), [])
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump(payload, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, exit_status = os.waitpid(pid, 0)
    if exit_status != 0 or not data:
        raise RuntimeError(f"forked op died with wait status {exit_status}")
    # only bytes this process's own child wrote are unpickled
    state, value, spans = pickle.loads(data)
    if state != "ok":
        raise RuntimeError(f"forked op raised:\n{value}")
    if tracer is not None:
        tracer.spans.extend(spans)
    return value
