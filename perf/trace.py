"""Host-time spans around the program's public callables, from outside.

The benchmark may not edit ``src/repro`` and later refactors may not
edit ``perf/``, so tracing is done by rebinding: every entry of
:data:`TABLE` names one public callable as ``module:qualname``; at
install time the callable is replaced by a timing wrapper

* on its class, for a method (every instance and every subclass that
  does not override it is covered), or
* in *every* loaded ``repro.*`` module whose namespace holds that very
  function object, for a module-level function — so ``from x import f``
  call sites are covered, not only ``x.f``.

A name that no longer resolves is reported as absent (a printed
warning, a ``null`` metric) and never raises: the benchmark has to
outlive the code it measures.

Spans are kept in memory as ``[name, layer, start, end, parent, op,
tag, counts]`` rows; a row's parent is the span that was open when it
began, and every row carries the id of the benchmark op that caused
it.  Self time is duration minus the part covered by child spans.
:meth:`Tracer.chrome` renders the rows as Chrome trace-event JSON
(open in ``chrome://tracing`` or Perfetto).
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

# Span row indices.
NAME, LAYER, START, END, PARENT, OP, TAG, COUNTS = range(8)

#: Layer of the root span the harness opens around each timed op.
BENCH_LAYER = "bench"


# -- count hooks ------------------------------------------------------------
# ``enter(args, kwargs) -> token`` runs before the call and
# ``leave(token, args, kwargs, result) -> {counter: n}`` after it, so a
# count is taken at the same boundary as the time.


def _events_enter(args, kwargs):
    return args[0].events_executed


def _events_leave(token, args, kwargs, result):
    return {"events": args[0].events_executed - token}


def _packets_leave(token, args, kwargs, result):
    return {"packets": result["packets"]}


def _schedule_leave(token, args, kwargs, result):
    schedule = args[1] if len(args) > 1 else kwargs["schedule"]
    return {"msgs": schedule.total_messages, "bytes": schedule.total_bytes}


def _cg_leave(token, args, kwargs, result):
    return {"iters": result.iterations}


def _component_tag(args, kwargs):
    return "atm" if args[0].is_atmosphere else "ocn"


class Entry(NamedTuple):
    """One row of the span table."""

    target: str  # "module:qualname"
    layer: str
    name: str
    enter: Optional[Callable] = None
    leave: Optional[Callable] = None
    tag: Optional[Callable] = None


def _quotes(module: str, cls: str) -> List[Entry]:
    return [
        Entry(f"repro.backend.{module}:{cls}.{method}", "backend", "quote")
        for method in ("exchange_time", "gsum_time", "barrier_time")
    ]


#: The single table of traced public callables (ISSUE 11, "Traced run").
TABLE: List[Entry] = [
    Entry("repro.sim.engine:Engine.run", "sim", "engine.run",
          enter=_events_enter, leave=_events_leave),
    Entry("repro.network.topology:crossvalidate_topology", "network",
          "crossvalidate", leave=_packets_leave),
    Entry("repro.network.topology:make_topology", "network", "make_topology"),
    Entry("repro.hardware.cluster:HyadesCluster.__init__", "hardware",
          "cluster_build"),
    Entry("repro.collectives.schedules:build", "collectives", "schedule_build"),
    Entry("repro.collectives.tuner:Autotuner.plan", "collectives", "plan"),
    Entry("repro.collectives.cost:schedule_cost", "collectives", "schedule_cost"),
    Entry("repro.collectives.des_exec:des_time_schedule", "collectives",
          "des_time_schedule", leave=_schedule_leave),
    *_quotes("des", "DESBackend"),
    *_quotes("analytic", "AnalyticBackend"),
    *_quotes("hybrid", "HybridBackend"),
    Entry("repro.backend.sweep:sweep_point", "backend", "sweep_point"),
    Entry("repro.backend.crossval:run_crossval", "backend", "run_crossval"),
    Entry("repro.parallel.runtime:LockstepRuntime.exchange", "parallel",
          "exchange"),
    Entry("repro.parallel.runtime:LockstepRuntime.global_sum", "parallel", "gsum"),
    # the CG solver's global sums do not go through the runtime
    Entry("repro.parallel.globalsum:butterfly_global_sum", "parallel", "gsum"),
    Entry("repro.parallel.exchange:exchange_halos", "parallel", "halo"),
    Entry("repro.gcm.timestepper:Model.step", "gcm", "step", tag=_component_tag),
    Entry("repro.gcm.prognostic:compute_g_terms", "gcm", "g_terms"),
    Entry("repro.gcm.cg:preconditioned_cg", "gcm", "cg", leave=_cg_leave),
    Entry("repro.gcm.coupled:CoupledModel.exchange_boundary_conditions", "gcm",
          "coupler"),
    Entry("repro.core.pfpp:topology_scoreboard", "core", "scoreboard"),
    Entry("repro.core.pfpp:best_collectives_table", "core", "best_collectives"),
    Entry("repro.service.api:ServiceClient.submit", "service", "client_submit"),
    Entry("repro.service.api:EnsembleService.serve", "service", "serve"),
    Entry("repro.service.api:EnsembleService.startup", "service", "startup"),
    Entry("repro.service.api:EnsembleService.ingest_spool", "service", "ingest"),
    Entry("repro.service.journal:Journal.append", "service", "journal_append"),
    Entry("repro.service.queue:JobQueue.replay", "service", "journal_replay"),
    Entry("repro.service.supervisor:Supervisor.spawn", "service", "spawn"),
    Entry("repro.service.supervisor:Supervisor.poll", "service", "poll"),
]


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self, table: Optional[List[Entry]] = None) -> None:
        self.table = TABLE if table is None else table
        self.spans: List[list] = []
        self.on = False
        self.warnings: List[str] = []
        #: ``target`` strings that did not resolve at install time.
        self.absent: List[str] = []
        self._stack: List[int] = []
        self._op: Any = None
        self._sites: List[Tuple[Any, str, Any]] = []  # (holder, attr, original)
        self._hook_failures: set = set()

    # -- recording --------------------------------------------------------

    def begin(self, name: str, layer: str, tag: Any = None) -> int:
        """Open a span under the currently open one; returns its index."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            [name, layer, time.perf_counter(), None, parent, self._op, tag, None]
        )
        self._stack.append(idx)
        return idx

    def end(self, idx: int, counts: Optional[dict] = None) -> None:
        """Close span ``idx`` (and anything an exception left open in it)."""
        now = time.perf_counter()
        while self._stack:
            top = self._stack.pop()
            self.spans[top][END] = now
            if top == idx:
                break
        if counts:
            self.spans[idx][COUNTS] = counts

    def begin_op(self, kind: str, op_id: Any, weight: int = 1) -> int:
        """Open the root span of one benchmark op and switch tracing on."""
        self._op = op_id
        self.on = True
        return self.begin(kind, BENCH_LAYER, tag=weight)

    def end_op(self, idx: int) -> None:
        """Close the op's root span and switch tracing off."""
        self.end(idx)
        self.on = False
        self._op = None

    # -- wrappers ---------------------------------------------------------

    def _hook_failed(self, entry: Entry, exc: Exception) -> None:
        if entry.target not in self._hook_failures:
            self._hook_failures.add(entry.target)
            self.warnings.append(
                f"trace: count hook on {entry.target} failed ({exc!r}); "
                f"its counters read null"
            )

    def _wrap(self, fn: Callable, entry: Entry) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            token = tag = None
            try:
                if entry.tag is not None:
                    tag = entry.tag(args, kwargs)
                if entry.enter is not None:
                    token = entry.enter(args, kwargs)
            except Exception as exc:  # the program's shape moved under us
                tracer._hook_failed(entry, exc)
            idx = tracer.begin(entry.name, entry.layer, tag)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end(idx)
                raise
            counts = None
            if entry.leave is not None and entry.target not in tracer._hook_failures:
                try:
                    counts = entry.leave(token, args, kwargs, result)
                except Exception as exc:
                    tracer._hook_failed(entry, exc)
            tracer.end(idx, counts)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", entry.name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        """Rebind every resolvable table entry to its timing wrapper."""
        for entry in self.table:
            module_name, _, qualname = entry.target.partition(":")
            try:
                module = importlib.import_module(module_name)
                holder: Any = module
                parts = qualname.split(".")
                for part in parts[:-1]:
                    holder = getattr(holder, part)
                original = holder.__dict__[parts[-1]]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(entry.target)
                self.warnings.append(
                    f"trace: {entry.target} no longer exists; its metrics read null"
                )
                continue
            wrapper = self._wrap(original, entry)
            if holder is module:
                # every loaded repro module that imported this function
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (
                        mod_name == "repro" or mod_name.startswith("repro.")
                    ):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._bind(mod, attr, wrapper, original)
            else:
                self._bind(holder, parts[-1], wrapper, original)

    def _bind(self, holder: Any, attr: str, wrapper: Any, original: Any) -> None:
        setattr(holder, attr, wrapper)
        self._sites.append((holder, attr, original))

    def absent_keys(self) -> set:
        """``layer.name`` span keys none of whose table entries resolved."""
        keys = {f"{e.layer}.{e.name}" for e in self.table}
        resolved = {f"{e.layer}.{e.name}" for e in self.table
                    if e.target not in self.absent}
        return keys - resolved

    def uninstall(self) -> None:
        """Restore every rebound name."""
        self.on = False
        while self._sites:
            holder, attr, original = self._sites.pop()
            setattr(holder, attr, original)

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> List[float]:
        """Per-span self time: duration minus child-covered time."""
        durations = [(s[END] or s[START]) - s[START] for s in self.spans]
        own = list(durations)
        for s, dur in zip(self.spans, durations):
            if s[PARENT] >= 0:
                own[s[PARENT]] -= dur
        return own

    def _root_kinds(self) -> Dict[tuple, str]:
        """op id -> kind of the root span that op ran under."""
        return {tuple(s[OP]): s[NAME] for s in self.spans if s[LAYER] == BENCH_LAYER}

    def summary(self, kind: Optional[str] = None) -> Dict[str, dict]:
        """Totals per ``layer.name`` (plus ``layer.name#tag`` where a tag
        was recorded): calls, inclusive seconds, self seconds, counters —
        over every traced op, or over the ops of one ``kind``.

        A span nested inside another span of the same key (the hybrid
        tier's quote calling the analytic tier's) adds its self time
        only, not a call and not inclusive time.
        """
        own = self.self_times()
        kinds = self._root_kinds()
        out: Dict[str, dict] = {}
        spans = self.spans
        for i, s in enumerate(spans):
            if s[LAYER] == BENCH_LAYER:
                continue
            if kind is not None and kinds.get(tuple(s[OP] or ())) != kind:
                continue
            keys = [f"{s[LAYER]}.{s[NAME]}"]
            if s[TAG] is not None:
                keys.append(f"{keys[0]}#{s[TAG]}")
            nested = False
            p = s[PARENT]
            while p >= 0:
                if spans[p][NAME] == s[NAME] and spans[p][LAYER] == s[LAYER]:
                    nested = True
                    break
                p = spans[p][PARENT]
            dur = (s[END] or s[START]) - s[START]
            for key in keys:
                row = out.setdefault(
                    key, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "counts": {}}
                )
                row["self_s"] += own[i]
                if not nested:
                    row["calls"] += 1
                    row["incl_s"] += dur
                for cname, n in (s[COUNTS] or {}).items():
                    row["counts"][cname] = row["counts"].get(cname, 0) + n
        return out

    def layer_self(self) -> Dict[str, Dict[str, float]]:
        """Self seconds per layer, per kind of root op (``drain`` and
        ``roundtrip`` differ; most workloads have the one kind ``op``).
        The ``bench`` layer is what no span covered."""
        own = self.self_times()
        kinds = self._root_kinds()
        out: Dict[str, Dict[str, float]] = {}
        for s, t in zip(self.spans, own):
            per_layer = out.setdefault(kinds.get(tuple(s[OP] or ()), "?"), {})
            per_layer[s[LAYER]] = per_layer.get(s[LAYER], 0.0) + t
        return out

    def op_totals(self) -> Tuple[float, int]:
        """(seconds, weighted op count) over the traced root spans."""
        seconds, ops = 0.0, 0
        for s in self.spans:
            if s[LAYER] == BENCH_LAYER and s[END] is not None:
                seconds += s[END] - s[START]
                ops += int(s[TAG] or 1)
        return seconds, ops

    def chrome(self, workload: str) -> dict:
        """The spans as Chrome trace-event JSON (host clock, microseconds)."""
        events: List[dict] = [
            {"name": "process_name", "ph": "M", "pid": 1,
             "args": {"name": f"perf:{workload} (host time)"}},
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": "benchmark"}},
        ]
        if not self.spans:
            return {"traceEvents": events, "displayTimeUnit": "ms"}
        t0 = self.spans[0][START]
        own = self.self_times()
        for i, s in enumerate(self.spans):
            args = {"span": i, "parent": s[PARENT], "op": s[OP],
                    "self_us": own[i] * 1e6}
            if s[TAG] is not None:
                args["tag"] = s[TAG]
            if s[COUNTS]:
                args.update(s[COUNTS])
            events.append({
                "name": s[NAME],
                "cat": s[LAYER],
                "ph": "X",
                "ts": (s[START] - t0) * 1e6,
                "dur": max((s[END] or s[START]) - s[START], 0.0) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": args,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}
