"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import Engine, SimTimeError, Store


def test_clock_starts_at_zero():
    assert Engine().now == 0.0


def test_schedule_and_run_advances_clock():
    eng = Engine()
    fired = []
    eng.schedule(1.5, lambda: fired.append(eng.now))
    eng.schedule(0.5, lambda: fired.append(eng.now))
    t = eng.run()
    assert fired == [0.5, 1.5]
    assert t == 1.5


def test_same_time_events_fire_in_fifo_order():
    eng = Engine()
    order = []
    for i in range(10):
        eng.schedule(1.0, lambda i=i: order.append(i))
    eng.run()
    assert order == list(range(10))


def test_schedule_passes_positional_arguments():
    eng = Engine()
    got = []
    eng.schedule(1.0, got.append, "a")
    eng.schedule_at(2.0, lambda x, y: got.append(x + y), "b", "c")
    eng.run()
    assert got == ["a", "bc"]


def test_late_events_run_last_in_their_instant():
    """A late event sorts behind every ordinary event of its timestamp,
    even ones scheduled after it and ones spawned during that instant;
    late events keep reservation order among themselves, whenever they
    are scheduled."""
    eng = Engine()
    order = []
    first, second = eng.late_ticket(1.0), eng.late_ticket(1.0)
    eng.schedule(1.0, lambda: (order.append("a"), eng.schedule(0.0, order.append, "a-child")))
    eng.schedule_at(1.0, order.append, "late2", ticket=second)
    eng.schedule(1.0, order.append, "b")
    eng.schedule_at(1.0, order.append, "late1", ticket=first)
    eng.schedule(1.5, order.append, "next")
    eng.run()
    assert order == ["a", "b", "a-child", "late1", "late2", "next"]
    assert eng.events_executed == 6


@pytest.mark.parametrize("bad", [-1e-9, float("nan"), float("inf")])
def test_schedule_late_rejects_bad_delays(bad):
    eng = Engine()
    with pytest.raises(SimTimeError):
        eng.schedule_at(bad, lambda: None, ticket=eng.late_ticket(0.0))


def test_a_late_ticket_nobody_redeems_still_holds_the_quiescent_clock():
    eng = Engine()
    eng.schedule(1.0, eng.late_ticket, 3.0)
    assert eng.run(until=2.0) == 2.0 and eng.settled
    assert eng.run() == 3.0
    assert eng.events_executed == 1


def test_schedule_negative_delay_rejected():
    eng = Engine()
    with pytest.raises(SimTimeError):
        eng.schedule(-0.1, lambda: None)


def test_schedule_at_past_rejected():
    eng = Engine()
    eng.schedule(1.0, lambda: None)
    eng.run()
    with pytest.raises(SimTimeError):
        eng.schedule_at(0.5, lambda: None)


def test_schedule_at_absolute_time():
    eng = Engine()
    seen = []
    eng.schedule_at(2.0, lambda: seen.append(eng.now))
    eng.run()
    assert seen == [2.0]


def test_run_until_stops_before_later_events():
    eng = Engine()
    fired = []
    eng.schedule(1.0, lambda: fired.append("a"))
    eng.schedule(3.0, lambda: fired.append("b"))
    t = eng.run(until=2.0)
    assert fired == ["a"]
    assert t == 2.0
    # The later event is still pending and runs on the next call.
    eng.run()
    assert fired == ["a", "b"]


def test_run_until_advances_clock_even_with_no_events():
    eng = Engine()
    assert eng.run(until=5.0) == 5.0
    assert eng.now == 5.0


def test_run_until_before_now_raises_and_dispatches_nothing():
    """The clock never runs backwards: ``until`` in the past is refused
    the way ``schedule_at`` refuses a past time."""
    eng = Engine()
    fired = []
    eng.schedule(1.0, lambda: None)
    eng.run()
    eng.schedule(1.0, lambda: fired.append(eng.now))
    with pytest.raises(SimTimeError, match="cannot run until 0.5 < now 1.0"):
        eng.run(until=0.5)
    assert eng.now == 1.0 and eng.events_executed == 1 and fired == []
    assert eng.run() == 2.0 and fired == [2.0]


def test_max_events_zero_dispatches_nothing():
    eng = Engine()
    eng.schedule(1.0, lambda: None)
    assert eng.run(max_events=0) == 0.0
    assert eng.events_executed == 0 and not eng.empty()


def test_max_events_counts_the_events_of_this_run():
    eng = Engine()
    for k in range(10):
        eng.schedule(float(k), lambda: None)
    eng.run(max_events=3)
    eng.run(max_events=3)
    assert eng.events_executed == 6 and eng.now == 5.0


def test_a_run_cut_by_max_events_leaves_the_clock_at_its_last_event():
    """Not at ``until``: the next run would dispatch an event before it."""
    eng = Engine()
    for k in range(1, 4):
        eng.schedule(float(k), lambda: None)
    assert eng.run(until=5.0, max_events=1) == 1.0
    assert eng.run(until=5.0) == 5.0 and eng.events_executed == 3


def test_nested_scheduling_from_callback():
    eng = Engine()
    times = []

    def outer():
        times.append(eng.now)
        eng.schedule(1.0, lambda: times.append(eng.now))

    eng.schedule(1.0, outer)
    eng.run()
    assert times == [1.0, 2.0]


def test_peek_and_empty():
    eng = Engine()
    assert eng.empty()
    assert eng.peek() == float("inf")
    eng.schedule(4.0, lambda: None)
    assert eng.peek() == 4.0
    assert not eng.empty()
    eng.run()
    assert eng.empty()


def test_max_events_bounds_execution():
    eng = Engine()
    count = []
    for _ in range(100):
        eng.schedule(1.0, lambda: count.append(1))
    eng.run(max_events=7)
    assert len(count) == 7


def test_events_executed_counter():
    eng = Engine()
    for i in range(5):
        eng.schedule(float(i), lambda: None)
    eng.run()
    assert eng.events_executed == 5


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_schedule_nonfinite_delay_rejected(bad):
    eng = Engine()
    with pytest.raises(SimTimeError):
        eng.schedule(bad, lambda: None)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_schedule_at_nonfinite_time_rejected(bad):
    eng = Engine()
    with pytest.raises(SimTimeError):
        eng.schedule_at(bad, lambda: None)


def test_nan_delay_does_not_corrupt_heap():
    """The regression this guards: ``nan < 0`` is False, so a nan delay
    passed the old past-time check, sank into the heap and silently broke
    event ordering for everything scheduled after it."""
    eng = Engine()
    fired = []
    with pytest.raises(SimTimeError):
        eng.schedule(float("nan"), lambda: fired.append("nan"))
    eng.schedule(1.0, lambda: fired.append("ok"))
    eng.schedule(2.0, lambda: fired.append("later"))
    assert eng.run() == 2.0
    assert fired == ["ok", "later"]


def test_event_exactly_at_until_boundary_runs():
    eng = Engine()
    fired = []
    eng.schedule(2.0, lambda: fired.append(eng.now))
    assert eng.run(until=2.0) == 2.0
    assert fired == [2.0]


def test_stop_when_halts_before_until_boundary_event():
    """``stop_when`` is checked between events: once satisfied, the run
    returns at the current time and leaves the boundary event pending."""
    eng = Engine()
    fired = []
    eng.schedule(1.0, lambda: fired.append("a"))
    eng.schedule(2.0, lambda: fired.append("b"))
    t = eng.run(until=2.0, stop_when=lambda: bool(fired))
    assert fired == ["a"]
    assert t == 1.0
    assert not eng.empty()


def test_max_events_cap_on_final_event_suppresses_watchdog():
    """Hitting the event cap exactly as the heap drains is a truncated
    run, not quiescence: the watchdog must not blame blocked workers."""
    eng = Engine()
    store = Store(eng)

    def worker():
        yield store.get()

    eng.process(worker(), name="w")
    # the process-start callback is the only event; the cap lands on it
    eng.run(max_events=1, watchdog=True)  # no DeadlockError


def test_watchdog_with_perpetual_daemon_traffic_and_stop_when():
    """Heartbeat-style daemon traffic keeps the heap non-empty forever;
    a completion predicate bounds the run and the watchdog stays quiet."""
    eng = Engine()
    beats = []

    def beacon():
        while True:
            yield eng.timeout(1.0)
            beats.append(eng.now)

    eng.process(beacon(), name="beacon", daemon=True)
    t = eng.run(stop_when=lambda: len(beats) >= 5, watchdog=True)
    assert beats == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert t == 5.0
    assert not eng.empty()  # the daemon's next beat is still pending


def test_register_process_prune_is_amortized():
    """Registering P short-lived processes must stay amortized O(1):
    the dead-process prune may not rescan the registry on every
    registration once it exceeds the threshold (the old behaviour made
    building a 4096-endpoint fabric quadratic)."""
    eng = Engine()
    base = eng._prune_threshold

    def one_shot():
        yield eng.timeout(0.0)

    for _ in range(3 * base):
        eng.process(one_shot(), daemon=True)
    # all still alive: the threshold must have doubled past the
    # population instead of pruning (and rescanning) every time
    assert eng._prune_threshold >= len(eng._processes) > base
    eng.run()
    # after they die, the next registrations prune them away again
    for _ in range(eng._prune_threshold + 1):
        eng.process(one_shot(), daemon=True)
    assert len(eng._processes) <= eng._prune_threshold
