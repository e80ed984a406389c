"""Exact call-count budget of a cold quote (a `scripts/ci.sh` stage of
its own, beside the DES event, GCM step and service spawn budgets).

A cold ``topology_scoreboard(n_values=(64,))`` prices the same four
``allreduce`` candidates on four machines.  Each schedule is built once
and shared, and a schedule is priced as arrays: the scalar cost
functions run once per distinct byte count, ``hop_distance`` once per
distinct pair.  A schedule is *built* as arrays too: pricing constructs
no ``Send`` and runs no item rule, at 64 ranks or at 1024.  A per-``Send``
loop, a per-tuner rebuild or an eagerly itemised builder fails here by
count, not by timing.
"""

import pytest

from repro.collectives import Autotuner, cost, schedule_cost, schedules, tuner
from repro.core.pfpp import topology_scoreboard
from repro.network.topology import SCOREBOARD_TOPOLOGIES, make_topology
from repro.niu.startx import PIO_COST_MODEL

N = 64
CANDIDATES = ("butterfly", "ring", "reduce_scatter_allgather", "tree")


def _count(monkeypatch, holder, name, calls=None):
    """Rebind ``holder``'s ``name`` (a dict entry or an attribute) to a
    wrapper that records each call's arguments in ``calls``."""
    calls = [] if calls is None else calls
    in_dict = isinstance(holder, dict)
    original = holder[name] if in_dict else getattr(holder, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    (monkeypatch.setitem if in_dict else monkeypatch.setattr)(holder, name, counted)
    return calls


@pytest.fixture
def counted(monkeypatch):
    """Counters on everything a quote may call, over a cold memo."""
    schedules._build.cache_clear()
    calls = {
        "builder": [
            _count(monkeypatch, schedules.BUILDERS["allreduce"], name)
            for name in CANDIDATES
        ],
        "schedule_cost": _count(monkeypatch, tuner, "schedule_cost"),
        "analytic_logp": _count(monkeypatch, cost, "analytic_logp"),
        "os_time": _count(monkeypatch, type(PIO_COST_MODEL), "os_time"),
        "or_time": _count(monkeypatch, type(PIO_COST_MODEL), "or_time"),
        "hop_distance": [],
        "Send": _count(monkeypatch, schedules, "Send"),
        "item_rule": [],
    }
    wired = schedules._wired

    def counting_wired(op, algorithm, n, nbytes, chunking, wire, items=None, root=0):
        def rule():
            calls["item_rule"].append((op, algorithm, n))
            return items()

        return wired(op, algorithm, n, nbytes, chunking, wire, items and rule, root)

    monkeypatch.setattr(schedules, "_wired", counting_wired)
    for cls in {type(make_topology(name, N)) for name in SCOREBOARD_TOPOLOGIES}:
        _count(monkeypatch, cls, "hop_distance", calls["hop_distance"])
    yield calls
    schedules._build.cache_clear()


def test_a_cold_scoreboard_builds_four_schedules_and_prices_them_as_arrays(counted):
    rows = topology_scoreboard(n_values=(N,))
    switched = [r for r in rows if r.topology != "ethernet"]  # the hub keeps its MPI fit
    assert len(switched) == 4
    assert [len(c) for c in counted["builder"]] == [1, 1, 1, 1]  # not one per tuner
    assert len(counted["schedule_cost"]) == 4 * len(CANDIDATES)

    priced = [args[0] for args in counted["schedule_cost"]]
    assert len({id(s) for s in priced}) == len(CANDIDATES)  # shared objects
    # one hop_distance call per distinct pair of each priced schedule;
    # the rest is the scoreboard's own diameter / neighbour-hop columns
    per_pair = sum(len(s.columns.pairs) for s in priced)
    own = len(counted["hop_distance"]) - per_pair
    assert per_pair == 3832 and 0 <= own <= 16  # 37 374 with a per-Send loop
    per_machine = {}
    for topo, s, d in counted["hop_distance"]:
        per_machine.setdefault(id(topo), []).append((s, d))
    assert max(len(pairs) for pairs in per_machine.values()) <= per_pair // 4 + 4

    # every candidate ships one distinct byte count at 8 B: the PIO cost
    # functions run once per schedule on the one PIO machine (the fat
    # tree), and the legacy fixed-transit latency is never consulted
    assert all(len(s.columns.sizes) == 1 for s in priced)
    assert len(counted["os_time"]) == len(counted["or_time"]) == len(CANDIDATES)
    assert counted["analytic_logp"] == []
    assert counted["Send"] == [] and counted["item_rule"] == []  # priced off the wire


def test_a_cold_default_plan_calls_each_cost_function_once_per_byte_count(counted):
    plan = Autotuner().plan("allreduce", N, 1000)  # 16-byte chunks and 1000-byte vectors
    assert [len(c) for c in counted["builder"]] == [1, 1, 1, 1]
    sizes = [len(s.columns.sizes) for (s, *_rest) in counted["schedule_cost"]]
    assert len(sizes) == len(CANDIDATES)
    small = sum(
        int((s.columns.sizes <= 88).sum()) for (s, *_rest) in counted["schedule_cost"]
    )
    assert small > 0 and sum(sizes) > small  # PIO and VI sizes both occur
    assert len(counted["analytic_logp"]) == small  # not one per message
    for name in ("os_time", "or_time"):  # once here, once inside analytic_logp
        assert len(counted[name]) == 2 * small, name
    assert counted["hop_distance"] == []
    assert plan.algorithm in CANDIDATES

    Autotuner().plan("allreduce", N, 1000)  # a second tuner: same schedules
    assert [len(c) for c in counted["builder"]] == [1, 1, 1, 1]
    assert counted["Send"] == [] and counted["item_rule"] == []


@pytest.mark.parametrize(
    "op,algorithm", [("alltoall", "bruck"), ("reduce_scatter", "recursive_halving")]
)
def test_a_1024_rank_build_is_its_closed_form_wire_and_nothing_else(counted, op, algorithm):
    """Neither algorithm had an elided branch: at 1024 ranks Bruck alone
    was ~4M item tuples.  Ten rounds, every rank sending once in each."""
    sch = schedules.build(op, algorithm, 1024, 8)
    assert sch.n_rounds == 10 and sch.total_messages == 10 * 1024
    assert sch.columns.bounds.tolist() == list(range(0, 10 * 1024 + 1, 1024))
    assert schedule_cost(sch) > 0.0
    assert sch.items_elided and "rounds" not in vars(sch)
    assert counted["Send"] == [] and counted["item_rule"] == []

    small = schedules.build(op, algorithm, 8, 8)  # the counters do see a data consumer
    small.validate()
    assert len(counted["Send"]) == small.total_messages == 3 * 8
    assert counted["item_rule"] == [(op, algorithm, 8)]
