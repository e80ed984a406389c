"""The array pricer is bit-exact against the per-``Send`` loop.

``tests/collectives/_reference_cost.py`` keeps the loop
``schedule_cost`` used to be; these tests price identical schedules
through both and require ``==`` on every float — no tolerance — for the
scalar quote and for the ``per_rank`` clock vector: every registered
algorithm over rank counts, payload sizes and machine shapes, then
hand-built schedules with what the builders never produce (a rank that
sends or receives several times in one round, PIO and VI sizes mixed in
one round, ranks that only send or only receive).
"""

import pathlib
import random
import sys

import pytest

from repro.collectives import BUILDERS, Schedule, Send, build, schedule_cost
from repro.collectives.schedules import POW2_ONLY, is_pow2
from repro.network.costmodel import arctic_cost_model, fast_ethernet_cost_model
from repro.network.errors import TopologyError
from repro.network.topology import SCOREBOARD_TOPOLOGIES, make_topology
from repro.parallel import Decomposition

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from _reference_cost import schedule_cost as reference_cost  # noqa: E402

RANK_COUNTS = (1, 2, 3, 5, 8, 16, 17, 64, 100, 256)
#: O(N^2)-message schedules: kept small so the scalar oracle stays cheap
QUADRATIC = {"ring", "bruck"}
QUADRATIC_MAX_N = 64
PAYLOADS = (0, 8, 88, 96, 1000, 65536)  # below / at / above the PIO limit


def _machines(n):
    """No topology, then every scoreboard machine (PIO and non-PIO) at
    the smallest size all of them accept that holds ``n`` ranks."""
    endpoints = 8
    while endpoints < n:
        endpoints *= 2
    return [None] + [make_topology(name, endpoints) for name in SCOREBOARD_TOPOLOGIES]


def _assert_same_bits(schedule, **kwargs):
    want = reference_cost(schedule, per_rank=True, **kwargs)
    got = schedule_cost(schedule, per_rank=True, **kwargs)
    assert type(got) is list and all(type(t) is float for t in got)
    assert got == want
    scalar = schedule_cost(schedule, **kwargs)
    assert type(scalar) is float
    assert scalar == reference_cost(schedule, **kwargs)


CASES = [
    (op, algorithm, n)
    for op, algorithms in BUILDERS.items()
    for algorithm in algorithms
    for n in RANK_COUNTS
    if (is_pow2(n) or (op, algorithm) not in POW2_ONLY)
    and (n <= QUADRATIC_MAX_N or algorithm not in QUADRATIC)
]


@pytest.mark.parametrize("op,algorithm,n", CASES, ids=lambda v: str(v))
def test_every_registered_algorithm_prices_bit_identically(op, algorithm, n):
    machines = _machines(n)
    for nbytes in PAYLOADS:
        schedule = build(op, algorithm, n, nbytes)
        for topology in machines:
            _assert_same_bits(schedule, topology=topology)
    _assert_same_bits(schedule, model=fast_ethernet_cost_model())


def _halo4():
    """The ``des_contended`` halo exchange: every rank of an 8x8 process
    grid sends to and receives from its four neighbours in one round."""
    decomp = Decomposition(128, 64, 8, 8, olx=1)
    sends = []
    for rank in range(decomp.n_ranks):
        edges = decomp.edge_bytes(nz=10, width=1, rank=rank)
        for direction, nbytes in zip(("west", "east", "south", "north"), edges):
            if nbytes:
                sends.append(Send(rank, decomp.neighbor(rank, direction), nbytes))
    return Schedule("exchange", "halo4", 64, 1280, 1, (tuple(sends),))


def _three_receives(order):
    """Ranks 1..3 leave round one at different clocks, then all send to
    rank 0: the order rank 0 drains them in decides its clock."""
    skew = (Send(1, 4, 8), Send(2, 4, 1000), Send(2, 5, 65536), Send(3, 5, 96))
    fan_in = tuple(Send(src, 0, nbytes) for src, nbytes in order)
    return Schedule("gather", "hand", 6, 65536, 1, (skew, fan_in))


def _random_schedule(rng):
    n = rng.randint(2, 12)
    rounds = []
    for _ in range(rng.randint(1, 5)):
        sends = []
        for _ in range(rng.randint(1, 3 * n)):
            src = rng.randrange(n)
            dst = rng.choice([r for r in range(n) if r != src])
            sends.append(Send(src, dst, rng.choice((0, 8, 64, 88, 96, 640, 1280, 65536))))
        rounds.append(tuple(sends))
    return Schedule("exchange", "random", n, 65536, 1, tuple(rounds))


HAND_BUILT = {
    "halo4": _halo4(),
    "fan-in-123": _three_receives([(1, 8), (2, 1000), (3, 96)]),
    "fan-in-321": _three_receives([(3, 96), (2, 1000), (1, 8)]),
    "fan-in-pio": _three_receives([(2, 8), (3, 64), (1, 88)]),
    "send-only-and-receive-only": Schedule(
        "scatter", "hand", 5, 96, 1,
        ((Send(0, 1, 8), Send(0, 2, 96), Send(0, 3, 8)), (Send(0, 3, 1000),)),
    ),
    "mixed-pio-vi": Schedule(
        "exchange", "hand", 4, 1000, 1,
        ((Send(0, 1, 8), Send(1, 0, 1000), Send(2, 3, 88), Send(3, 2, 96),
          Send(0, 2, 1000), Send(2, 0, 8)),),
    ),
    "empty": Schedule("allreduce", "hand", 4, 8, 1, ()),
    "empty-round": Schedule("allreduce", "hand", 3, 8, 1, ((), (Send(0, 1, 8),))),
}
HAND_BUILT.update(
    (f"random-{seed}", _random_schedule(random.Random(seed))) for seed in range(40)
)


@pytest.mark.parametrize("name", HAND_BUILT)
def test_hand_built_schedules_price_bit_identically(name):
    schedule = HAND_BUILT[name]
    for topology in _machines(schedule.n):
        _assert_same_bits(schedule, topology=topology)
    _assert_same_bits(schedule, model=arctic_cost_model())


def test_the_order_of_receives_at_one_rank_is_priced():
    forward = schedule_cost(HAND_BUILT["fan-in-123"], per_rank=True)
    backward = schedule_cost(HAND_BUILT["fan-in-321"], per_rank=True)
    assert forward[0] != backward[0]
    assert forward[1:] == backward[1:]


def test_a_schedule_wider_than_the_machine_still_raises():
    schedule = build("allreduce", "butterfly", 16, 8)
    topology = make_topology("torus3d", 8)
    for pricer in (schedule_cost, reference_cost):
        with pytest.raises(TopologyError):
            pricer(schedule, topology=topology)
