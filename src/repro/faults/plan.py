"""Declarative, seeded fault plans.

A :class:`FaultPlan` is pure data: probabilities and scheduled events.
Determinism contract: the random draws for each link come from a
dedicated :class:`random.Random` seeded by ``(plan.seed, link name)``,
so a link sees the same fault decisions for the same packet sequence
regardless of what happens elsewhere in the fabric — and two runs of
the same workload under the same plan inject *identical* faults.

Beyond the binary faults (drop/corrupt/stall/crash) a plan can schedule
*performance* faults — the degraded-but-alive states that dominate on
commodity clusters: :class:`SlowdownEvent` (a node's CPU runs slower for
a window), :class:`BandwidthEvent` (a link loses bandwidth and/or gains
latency) and :class:`JitterEvent` (a flaky NIC adds seeded per-packet
delay).  A campaign job does not ship a plan: it carries its
scenario's parameters and rebuilds the plan with
:func:`repro.faults.campaign.build_plan`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Mapping, Tuple


@dataclass(frozen=True)
class LinkFaultModel:
    """Per-packet fault probabilities on one link."""

    drop_prob: float = 0.0
    corrupt_prob: float = 0.0

    def __post_init__(self) -> None:
        for name in ("drop_prob", "corrupt_prob"):
            p = getattr(self, name)
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"{name} must be a probability, got {p}")
        if self.drop_prob + self.corrupt_prob > 1.0:
            raise ValueError("drop_prob + corrupt_prob must not exceed 1")

    @property
    def active(self) -> bool:
        return self.drop_prob > 0.0 or self.corrupt_prob > 0.0


@dataclass(frozen=True)
class BandwidthEvent:
    """Transient degradation: scale a link's bandwidth by ``factor``
    (and add ``extra_latency`` seconds per packet) during
    ``[start, start + duration)`` of virtual time.

    ``link`` is matched as a substring of the link name (e.g. ``"niu3^"``
    for node 3's injection link, ``"R1.0.0"`` for every link of that
    router).  ``factor`` follows ``Link.rate_factor`` semantics: values
    below 1 degrade (0.25 = a quarter of the nominal bandwidth).
    """

    link: str
    start: float
    duration: float
    factor: float
    extra_latency: float = 0.0

    def __post_init__(self) -> None:
        if self.factor <= 0:
            raise ValueError("bandwidth factor must be positive")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.extra_latency < 0:
            raise ValueError("extra_latency must be non-negative")


@dataclass(frozen=True)
class SlowdownEvent:
    """Node ``node``'s CPUs run ``factor`` times slower during
    ``[start, start + duration)``: compute (and PIO register traffic)
    takes ``factor`` times as long.  ``factor`` must be >= 1."""

    node: int
    start: float
    duration: float
    factor: float

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise ValueError("slowdown factor must be >= 1 (1 = no slowdown)")
        if self.duration <= 0:
            raise ValueError("duration must be positive")


@dataclass(frozen=True)
class JitterEvent:
    """Flaky NIC: node ``node``'s links add a seeded per-packet delay
    drawn uniformly from ``[0, amp)`` seconds during
    ``[start, start + duration)``.  The draws come from the plan's
    per-link RNG discipline, so two runs of the same workload under the
    same plan see identical jitter."""

    node: int
    start: float
    duration: float
    amp: float

    def __post_init__(self) -> None:
        if self.amp <= 0:
            raise ValueError("jitter amplitude must be positive")
        if self.duration <= 0:
            raise ValueError("duration must be positive")

    @property
    def mean_delay(self) -> float:
        """Expected per-packet delay (uniform on ``[0, amp)``)."""
        return self.amp / 2.0


@dataclass(frozen=True)
class StallEvent:
    """Node ``node`` stops sending for ``duration`` seconds at ``start``."""

    node: int
    start: float
    duration: float


@dataclass(frozen=True)
class CrashEvent:
    """Node ``node`` dies at ``start``: its sends stop forever and
    packets addressed to it are blackholed."""

    node: int
    start: float


@dataclass(frozen=True)
class FaultPlan:
    """A complete, reproducible fault scenario.

    ``drop_prob``/``corrupt_prob`` apply to every fabric link;
    ``link_overrides`` replaces the model for links whose name contains
    the given key (first match wins, in insertion order).
    """

    seed: int = 0
    drop_prob: float = 0.0
    corrupt_prob: float = 0.0
    link_overrides: Mapping[str, LinkFaultModel] = field(default_factory=dict)
    degradations: Tuple[BandwidthEvent, ...] = ()
    stalls: Tuple[StallEvent, ...] = ()
    crashes: Tuple[CrashEvent, ...] = ()
    slowdowns: Tuple[SlowdownEvent, ...] = ()
    jitters: Tuple[JitterEvent, ...] = ()

    def __post_init__(self) -> None:
        # validate the global probabilities through LinkFaultModel
        LinkFaultModel(self.drop_prob, self.corrupt_prob)

    def model_for(self, link_name: str) -> LinkFaultModel:
        """The fault model governing the named link."""
        for key, model in self.link_overrides.items():
            if key in link_name:
                return model
        return LinkFaultModel(self.drop_prob, self.corrupt_prob)

    def link_seed(self, link_name: str) -> int:
        """Deterministic per-link RNG seed (independent of wiring order)."""
        return (self.seed << 32) ^ zlib.crc32(link_name.encode())

    @property
    def degrading(self) -> bool:
        """True when the plan carries *performance* faults (events that
        slow the machine down without breaking it)."""
        return bool(self.degradations or self.slowdowns or self.jitters)
