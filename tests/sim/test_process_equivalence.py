"""The one-call-chain wake-up against the old process layer.

``_reference_process.py`` keeps the event, process and queue classes and
the NIU methods as they were before a wake-up became one call chain;
its ``install`` swaps them into every ``repro`` module.  Each test below
runs the same thing twice, on the live layer and on the old one, and
demands the same outcome bit for bit:

* random process programs under hypothesis — timeouts (zero-delay ones
  too), ``Signal`` broadcasts, ``Store`` / ``PriorityStore`` with
  capacity back-pressure, ``Resource``, ``AllOf`` / ``AnyOf`` over
  children that already fired or that fail, interrupts while waiting on
  any of these, processes joining processes, uncaught exceptions,
  traced and untraced: the same engine call log (every ``schedule``
  with its clock, delay and callback, every dispatch),
  ``events_executed``, delivered values and exceptions,
  ``DeadlockError.blocked`` and message, and trace events;
* the NIU's PIO and VI paths, the VI demux and the reliable wire on a
  cluster, clean and under faults: the same virtual times, events,
  counters and trace.
"""

from __future__ import annotations

import collections
import contextlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim
from repro.sim import DeadlockError, Engine, Interrupt
from repro.collectives import Schedule, Send, build, des_run_schedule, des_time_schedule
from repro.faults import FaultInjector, FaultPlan
from repro.hardware import HyadesCluster, HyadesConfig
from repro.obs import trace as obs_trace

import _reference_process as reference


@contextlib.contextmanager
def layer(old):
    """Run the body on the live layer, or with the old one swapped in."""
    with pytest.MonkeyPatch.context() as mp:
        if old:
            reference.install(mp)
        yield


def log_engine_calls(engine, log):
    """Record every ``schedule`` / ``schedule_at`` (clock, delay or time,
    callback) and every dispatch (clock, callback) of ``engine``."""
    schedule, schedule_at = engine.schedule, engine.schedule_at

    def label(fn):  # an old NIU class is the live name with "Reference" in front
        owner = getattr(fn, "__self__", None)
        who = getattr(owner, "name", None) or type(owner).__name__.removeprefix("Reference")
        return f"{who}.{fn.__name__}"

    def logged(fn):
        def dispatch(*args):
            log.append(("run", engine.now, label(fn)))
            fn(*args)

        return dispatch

    def logged_schedule(delay, fn, *args):
        log.append(("schedule", engine.now, delay, label(fn)))
        schedule(delay, logged(fn), *args)

    def logged_schedule_at(when, fn, *args, ticket=None):
        log.append(("schedule_at", engine.now, when, label(fn)))
        schedule_at(when, logged(fn), *args, ticket=ticket)

    engine.schedule, engine.schedule_at = logged_schedule, logged_schedule_at


def norm(value):
    """A delivered value, comparable across the two layers."""
    if isinstance(value, (list, tuple)):
        return type(value)(norm(v) for v in value)
    if isinstance(value, BaseException):
        return (type(value).__name__, norm(getattr(value, "cause", value.args)))
    if type(value).__name__ == "Resource":
        return "Resource"
    return value


# -- random process programs ---------------------------------------------------

#: op kinds a program draws from
WAITS = ("timeout", "signal", "get", "put", "acquire", "allof", "anyof", "join", "latch")
ACTIONS = ("fire", "try_put", "try_get", "clear", "interrupt", "trip", "raise")


def run_program(seed, traced):
    """A seeded program of 3-8 processes over shared signals, queues, a
    semaphore and one-shot events; everything an observer can see of its
    run, on whichever layer is installed."""
    rng = random.Random(seed)
    sim = repro.sim  # read at run time: the old layer rebinds its names
    engine = Engine()
    calls, seen = [], []
    paths = collections.Counter()  # what the run went through, for the coverage check
    log_engine_calls(engine, calls)
    signals = [sim.Signal(engine, name=f"sig{k}") for k in range(2)] + [sim.Signal(engine)]
    stores = [
        sim.Store(engine, capacity=rng.choice((None, 1, 2)), name="fifo"),
        sim.Store(engine, capacity=rng.choice((None, 1))),
        sim.PriorityStore(engine, capacity=rng.choice((None, 1, 2)), name="prio"),
    ]
    resources = [sim.Resource(engine, capacity=rng.choice((1, 2)))]
    # one-shot events any process may succeed or fail ("trip")
    latches = [sim.process.BaseEvent(engine) for _ in range(2)]
    n = rng.randrange(3, 9)
    procs = []

    def child(me):
        kind = rng.choice(("timeout", "zero", "fired", "failed", "latch", "signal"))
        paths[f"child-{kind}"] += 1
        if kind in ("timeout", "zero"):
            return engine.timeout(0.0 if kind == "zero" else rng.choice((1e-6, 2e-6)))
        if kind in ("fired", "failed"):
            ev = sim.process.BaseEvent(engine)
            if kind == "fired":
                ev.succeed(f"early{me}")
            else:
                ev.fail(ValueError(f"early{me}"))
            return ev
        if kind == "latch":
            return rng.choice(latches)
        return rng.choice(signals).wait()

    def wait_on(me, kind):
        """The waitable one wait op yields."""
        if kind == "timeout":
            delay = rng.choice((0.0, 0.0, 1e-6, 2.5e-6))
            paths["zero-timeout"] += delay == 0.0
            return engine.timeout(delay)
        if kind == "signal":
            return rng.choice(signals).wait()
        if kind == "get":
            return rng.choice(stores).get()
        if kind == "put":
            k = rng.randrange(len(stores))
            item = f"{me}:{len(seen)}"
            paths["put-blocked"] += stores[k].full
            if k == 2:
                return stores[k].put(item, rng.choice((0, 1, 1)))
            return stores[k].put(item)
        if kind == "acquire":
            return rng.choice(resources).acquire()
        if kind in ("allof", "anyof"):
            children = [child(me) for _ in range(rng.randrange(1, 4))]
            cls = sim.AllOf if kind == "allof" else sim.AnyOf
            return cls(engine, children)
        if kind == "join":
            return procs[rng.choice([j for j in range(n) if j != me])]
        return rng.choice(latches)

    def act(me, kind):
        if kind == "fire":
            return rng.choice(signals).fire(f"v{me}")
        if kind == "try_put":
            k = rng.randrange(len(stores))
            paths["try_put-to-waiters"] += len(stores[k]._getters) > 1
            if k == 2:
                return stores[k].try_put(f"t{me}", rng.choice((0, 1)))
            return stores[k].try_put(f"t{me}")
        if kind == "try_get":
            return rng.choice(stores).try_get()
        if kind == "clear":  # a putter held back may now face an empty queue
            store = rng.choice(stores)
            paths["clear-under-putters"] += bool(store._putters)
            return store.clear()
        if kind == "interrupt":
            procs[rng.randrange(n)].interrupt(f"from{me}")
            return None
        if kind == "trip":
            latch = rng.choice(latches)
            if latch.triggered:
                return "late"
            if rng.random() < 0.5:
                return latch.succeed(me).ok
            return latch.fail(ValueError(me)).ok
        raise RuntimeError(f"uncaught in p{me}")

    # each program leans its own way; a third only move items through
    # the queues (back-pressure, clears under blocked putters)
    queues_only = rng.random() < 0.3
    wait_weights = [
        rng.random() ** 2 if not queues_only or kind in ("get", "put") else 0.0
        for kind in WAITS
    ]
    act_weights = [
        rng.random() ** 2 if not queues_only or kind in ("try_put", "try_get", "clear") else 0.0
        for kind in ACTIONS[:-1]
    ] + [0.05]

    def script(me):
        ops = []
        for _ in range(rng.randrange(1, 11)):
            if rng.random() < 0.6:
                ops.append(("wait", rng.choices(WAITS, wait_weights)[0]))
            else:
                ops.append(("act", rng.choices(ACTIONS, act_weights)[0]))
        return ops

    def proc(me, ops, catches):
        for i, (what, kind) in enumerate(ops):
            try:
                if what == "act":
                    seen.append((engine.now, me, i, kind, norm(act(me, kind))))
                    if rng.random() < 0.5:
                        yield engine.timeout(0.0)
                    continue
                value = yield wait_on(me, kind)
                seen.append((engine.now, me, i, kind, norm(value)))
                if kind == "acquire":
                    yield engine.timeout(rng.choice((0.0, 1e-6)))
                    value.release()
            except Interrupt as exc:
                seen.append((engine.now, me, i, "interrupted", norm(exc)))
                paths[f"interrupted-{kind}"] += 1
                if not catches:
                    raise
            except ValueError as exc:
                seen.append((engine.now, me, i, "failed", norm(exc)))
                paths[f"failed-{kind}"] += 1
        return f"p{me} done"

    for me in range(n):
        catches = rng.random() < 0.75
        procs.append(
            engine.process(proc(me, script(me), catches), name=f"p{me}", daemon=me == 0)
        )
    ends = []
    with obs_trace.tracing() if traced else contextlib.nullcontext() as tracer:
        while True:
            try:
                ends.append(("quiescent", engine.run(watchdog=True)))
                break
            except DeadlockError as exc:
                ends.append(("deadlock", [p.name for p in exc.blocked], str(exc)))
                break
            except Exception as exc:  # escaped a process: the run stops there
                ends.append(("raised", repr(exc), engine.now, engine.events_executed))
    return {
        "calls": calls,
        "seen": seen,
        "ends": ends,
        "events": engine.events_executed,
        "procs": [(p.name, p.triggered, p.value if p.triggered else None) for p in procs],
        "trace": None if tracer is None else tracer.events,
        "paths": paths,
    }


def run_both(fn, *args):
    new = fn(*args)
    with layer(old=True):
        ref = fn(*args)
    return new, ref


@given(seed=st.integers(min_value=0, max_value=2**32 - 1), traced=st.booleans())
@settings(max_examples=300, deadline=None)
def test_random_programs_match_the_old_layer(seed, traced):
    new, ref = run_both(run_program, seed, traced)
    assert new == ref


def test_the_programs_exercise_every_path():
    """The oracle above is worth something only if its programs reach
    an interrupt during every kind of wait, a fired and a failing child,
    a failed wait, a put held back by a full queue (and the queue cleared
    under it), a non-blocking put meeting several getters, zero-delay timeouts,
    uncaught exceptions and deadlocks — checked on fixed seeds."""
    total = collections.Counter()
    for seed in range(200):
        out = run_program(seed, traced=seed % 3 == 0)
        total.update(out["paths"])
        total.update(end[0] for end in out["ends"])
    wanted = [f"interrupted-{kind}" for kind in WAITS] + [
        "child-fired", "child-failed", "failed-allof", "failed-anyof", "failed-latch",
        "put-blocked", "try_put-to-waiters", "clear-under-putters",
        "zero-timeout", "raised", "deadlock", "quiescent",
    ]
    assert all(total[key] > 0 for key in wanted), {key: total[key] for key in wanted}


def clear_under_a_blocked_putter():
    """A full queue with a putter held back is cleared, a getter blocks on
    it, then a non-blocking put arrives: the getter takes that item and
    the held-back putter's item moves in (too rare for the programs)."""
    engine = Engine()
    calls, seen = [], []
    log_engine_calls(engine, calls)
    store = repro.sim.Store(engine, capacity=1, name="q")

    def putter():
        for item in ("a", "b"):
            seen.append(("put", item, engine.now, (yield store.put(item))))

    def getter():
        yield engine.timeout(1e-6)
        seen.append(("cleared", store.clear()))
        seen.append(("got", (yield store.get())))
        seen.append(("got", (yield store.get())))

    def late():
        yield engine.timeout(2e-6)
        seen.append(("try_put", store.try_put("c"), len(store)))

    for gen in (putter(), getter(), late()):
        engine.process(gen)
    engine.run(watchdog=True)
    return calls, seen, engine.events_executed


def test_a_queue_cleared_under_a_blocked_putter_matches_the_old_layer():
    new, ref = run_both(clear_under_a_blocked_putter)
    assert new == ref
    assert new[1][-2:] == [("got", "c"), ("got", "b")]


def test_the_old_layer_is_what_runs_inside_install():
    with layer(old=True):
        engine = Engine()
        cluster = HyadesCluster(HyadesConfig(n_nodes=2))
        made = [engine.timeout(0.0), repro.sim.Store(engine).get(), cluster.niu(0),
                engine.process(iter(()))]
    assert {type(x).__module__ for x in made} == {reference.__name__}
    assert type(Engine().timeout(0.0)).__module__ == "repro.sim.process"


# -- the NIU's PIO and VI paths, the VI demux and the reliable wire ------------


def halo_and_bruck(n):
    """VI traffic: 640 B and 1280 B neighbour sends in one round, then an
    alltoall of 256 B messages."""
    sends = [Send(i, (i + 1) % n, 640) for i in range(n)]
    sends += [Send(i, (i - 1) % n, 1280) for i in range(n)]
    return [Schedule("exchange", "halo2", n, 1280, 1, (tuple(sends),)),
            build("alltoall", "bruck", n, 64)]


def run_cluster(scenario, traced):
    """One scenario on a fresh 8-node cluster: what an observer sees."""
    n = 8
    cluster = HyadesCluster(HyadesConfig(n_nodes=n))
    calls = []
    log_engine_calls(cluster.engine, calls)
    out = {}
    with obs_trace.tracing() if traced else contextlib.nullcontext() as tracer:
        if scenario == "pio":
            out["times"] = [des_time_schedule(cluster, build("allreduce", "butterfly", n, b))
                            for b in (8, 64, 88)]
        elif scenario == "vi":
            out["times"] = [des_time_schedule(cluster, s) for s in halo_and_bruck(n)]
        else:  # the reliable wire, under drops and corruption
            plan = FaultPlan(seed=5, drop_prob=0.02, corrupt_prob=0.01)
            injector = FaultInjector(cluster.fabric, plan)
            inputs = [np.arange(32.0) * (r + 1) for r in range(n)]
            results, elapsed = des_run_schedule(
                cluster, build("allreduce", "butterfly", n, 256), inputs
            )
            out["times"] = [elapsed]
            out["results"] = [r.tobytes() for r in results]
            out["injected"] = (injector.injected_drops, injector.injected_corruptions)
            out["reliable"] = [cluster.niu(r)._reliable_layer.stats() for r in range(n)]
    nius = [cluster.niu(r) for r in range(n)]
    out["nius"] = [(x.packets_sent, x.packets_received, x.crc_status_errors,
                    x.pci.total_mmap_reads, x.pci.total_mmap_writes) for x in nius]
    out["clock"] = (cluster.engine.now, cluster.engine.events_executed)
    out["calls"] = calls
    out["trace"] = None if tracer is None else tracer.events
    return out


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("scenario", ["pio", "vi", "reliable"])
def test_niu_paths_match_the_old_layer(scenario, traced):
    new, ref = run_both(run_cluster, scenario, traced)
    assert new == ref
    if scenario == "reliable":
        assert min(new["injected"]) > 0  # the faults did land


# -- diagnostics: not a character moves now that a wait's desc is lazy ---------


def blocked_run(case):
    """A run that wedges: ``(DeadlockError text, blocked names, traced
    ``wait`` span names)``."""
    from repro.network.router import FAULT_DROP
    from repro.niu.startx import TAG_VI_DATA

    if case == "pio":
        # every packet to node 3 is lost: rank 3 waits on its PIO queue
        cluster = HyadesCluster(HyadesConfig(n_nodes=4))

        def lost(pkt):
            return FAULT_DROP if pkt.dst == 3 else None

        def run():
            des_time_schedule(cluster, build("allreduce", "butterfly", 4, 8))
    else:
        # the second fragment of a 640 B VI transfer is lost
        cluster = HyadesCluster(HyadesConfig(n_nodes=2))
        tx, rx = cluster.niu(0), cluster.niu(1)

        def lost(pkt):
            return FAULT_DROP if pkt.tag == TAG_VI_DATA and pkt.payload_words[1] == 88 else None

        def receiver():
            xfer = yield from rx.vi_serve_request()
            yield from rx.vi_wait_complete(xfer.xid)

        def run():
            cluster.engine.process(tx.vi_send(1, 640), name="vi-send[node0]")
            cluster.engine.process(receiver(), name="vi-recv[node1]")
            cluster.engine.run(watchdog=True)

    for link in cluster.fabric.links:
        link.fault_hook = lost
    with obs_trace.tracing() as tracer:
        with pytest.raises(DeadlockError) as err:
            run()
    waits = sorted({ev["name"] for ev in tracer.events if ev["ph"] == "B"})
    return str(err.value), [p.name for p in err.value.blocked], waits


PIO_WEDGED = (
    "simulation quiescent with 2 blocked process(es): "
    "allreduce:butterfly[rank1.node1] waiting on Store(pio-rx[node1]).get; "
    "allreduce:butterfly[rank3.node3] waiting on Store(pio-rx[node3]).get",
    ["wait Store(pio-rx[node0]).get", "wait Store(pio-rx[node1]).get",
     "wait Store(pio-rx[node2]).get", "wait Store(pio-rx[node3]).get", "wait Timeout"],
)
VI_LOST = (
    "simulation quiescent with 1 blocked process(es): "
    "vi-recv[node1] waiting on Signal(vi-complete[xid=0]).wait",
    ["wait Signal(vi-ack[xid=0]).wait", "wait Signal(vi-complete[xid=0]).wait",
     "wait Store(vi-requests[node1]).get", "wait Timeout"],
)


@pytest.mark.parametrize("case, pinned", [("pio", PIO_WEDGED), ("vi", VI_LOST)])
def test_deadlock_text_and_wait_spans_are_pinned(case, pinned):
    """A wedged PIO receive and a lost VI fragment read as they always
    did: the watchdog's message and the traced span names, to the
    character, on both layers."""
    new, ref = run_both(blocked_run, case)
    assert new == ref
    message, _blocked, waits = new
    assert (message, waits) == pinned
