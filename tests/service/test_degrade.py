"""Graceful degradation: shed newest LOW only, never NORMAL/HIGH."""

import pytest

from repro.service import JobPriority, JobQueue, JobSpec, Journal, degrade
from repro.service.degrade import shed_excess
from repro.service.jobs import JobStatus


def make_queue(tmp_path):
    journal = Journal(tmp_path / "j.bin").open()
    queue = JobQueue(journal)
    queue.replay()
    return queue


@pytest.fixture
def cap_of_two(monkeypatch):
    monkeypatch.setattr(degrade, "MAX_PENDING", 2)


def submit(queue, name, priority):
    queue.submit(JobSpec(kind="sleep", name=name, params={}, priority=priority))


def test_sheds_newest_low_first(tmp_path, cap_of_two):
    queue = make_queue(tmp_path)
    submit(queue, "low-old", JobPriority.LOW)
    submit(queue, "norm", JobPriority.NORMAL)
    submit(queue, "low-new", JobPriority.LOW)
    shed = shed_excess(queue)
    assert shed == ["low-new"]
    assert queue.jobs["low-new"].status is JobStatus.SHED
    assert "load shed" in queue.jobs["low-new"].reason
    assert queue.jobs["low-old"].status is JobStatus.PENDING


def test_never_sheds_normal_or_high(tmp_path, cap_of_two):
    queue = make_queue(tmp_path)
    for i in range(4):
        submit(queue, f"n{i}", JobPriority.NORMAL)
    submit(queue, "h0", JobPriority.HIGH)
    assert shed_excess(queue) == []
    assert all(s.status is JobStatus.PENDING for s in queue.jobs.values())


def test_sheds_down_to_cap_and_is_journaled(tmp_path, cap_of_two):
    queue = make_queue(tmp_path)
    for i in range(5):
        submit(queue, f"l{i}", JobPriority.LOW)
    shed = shed_excess(queue)
    assert shed == ["l4", "l3", "l2"]  # newest first
    # the sheds survive a replay: they were journaled as terminal states
    queue.journal.close()
    fresh = JobQueue(Journal(tmp_path / "j.bin"))
    fresh.replay()
    assert sorted(
        j for j, s in fresh.jobs.items() if s.status is JobStatus.SHED
    ) == ["l2", "l3", "l4"]


def test_uncapped_config_never_sheds(tmp_path):
    """A backlog under the service's cap sheds nothing, LOW or not."""
    queue = make_queue(tmp_path)
    for i in range(10):
        submit(queue, f"l{i}", JobPriority.LOW)
    assert degrade.MAX_PENDING > 10
    assert shed_excess(queue) == []
    assert all(s.status is JobStatus.PENDING for s in queue.jobs.values())
