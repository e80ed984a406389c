"""Wiring a :class:`FaultPlan` into a live fabric.

The injector installs per-link fault hooks (drop/corrupt draws from the
plan's per-link RNGs), schedules bandwidth/latency-degradation windows,
NIC-jitter windows (seeded per-packet delay hooks) and node stall/crash
events on the engine, and aggregates counters for the run report.  A
CPU slowdown is not a fabric event: it is priced by
:meth:`~repro.faults.degrade.DegradationSchedule.cpu_factor`, and a
plan that carries one is rejected here.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.network.fabrics import Fabric
from repro.network.packet import Packet
from repro.network.router import FAULT_CORRUPT, FAULT_DROP, Link
from repro.faults.plan import FaultPlan


class FaultInjector:
    """Installs a fault plan on a fabric and counts what it injects."""

    def __init__(self, fabric: Fabric, plan: FaultPlan) -> None:
        if plan.slowdowns:
            raise ValueError(
                "a CPU slowdown is not a fabric fault: price it through "
                "DegradationSchedule.cpu_factor (the lockstep runtime), "
                "not the DES injector"
            )
        self.fabric = fabric
        self.plan = plan
        self.engine = fabric.engine
        self.injected_drops = 0
        self.injected_corruptions = 0
        self.injected_jitter_delays = 0
        self.hooked_links: list[Link] = []
        self._install()

    # -- installation ---------------------------------------------------

    def _install(self) -> None:
        for link in self.fabric.iter_links():
            model = self.plan.model_for(link.name)
            if model.active:
                link.fault_hook = self._make_hook(link, model)
                self.hooked_links.append(link)
        for ev in self.plan.degradations:
            for link in self.fabric.iter_links():
                if ev.link in link.name:
                    self._schedule_degradation(
                        link, ev.start, ev.duration, ev.factor, ev.extra_latency
                    )
        for jt in self.plan.jitters:
            for link in self.fabric.node_links(jt.node):
                self._install_jitter(link, jt)
        for st in self.plan.stalls:
            for link in self.fabric.node_links(st.node):
                self.engine.schedule(st.start, link.stall, st.duration)
        for cr in self.plan.crashes:
            self.engine.schedule(cr.start, self.fabric.kill_endpoint, cr.node)

    def _make_hook(self, link: Link, model) -> object:
        rng = random.Random(self.plan.link_seed(link.name))

        def hook(pkt: Packet) -> Optional[str]:
            r = rng.random()
            if r < model.drop_prob:
                self.injected_drops += 1
                return FAULT_DROP
            if r < model.drop_prob + model.corrupt_prob:
                self.injected_corruptions += 1
                return FAULT_CORRUPT
            return None

        return hook

    def _schedule_degradation(
        self,
        link: Link,
        start: float,
        duration: float,
        factor: float,
        extra_latency: float = 0.0,
    ) -> None:
        def begin() -> None:
            link.rate_factor *= factor
            link.latency_extra += extra_latency

        def end() -> None:
            link.rate_factor /= factor
            link.latency_extra -= extra_latency

        self.engine.schedule(start, begin)
        self.engine.schedule(start + duration, end)

    def _install_jitter(self, link: Link, ev) -> None:
        """Seeded per-packet delay on ``link`` during the event window.

        The RNG key is derived from the link name plus the event's
        schedule, so two jitter events on the same node draw independent
        (but still reproducible) sequences.
        """
        rng = random.Random(
            self.plan.link_seed(f"{link.name}:jitter@{ev.start}:{ev.amp}")
        )
        prev_hook = link.delay_hook

        def hook(pkt: Packet, _end: float = ev.start + ev.duration) -> float:
            delay = prev_hook(pkt) if prev_hook is not None else 0.0
            if ev.start <= self.engine.now < _end:
                self.injected_jitter_delays += 1
                delay += rng.random() * ev.amp
            return delay

        link.delay_hook = hook

    # -- reporting ------------------------------------------------------

    def counters(self) -> dict:
        """Injected-fault totals plus the fabric's observed counters."""
        out = dict(self.fabric.fault_counters())
        out["injected_drops"] = self.injected_drops
        out["injected_corruptions"] = self.injected_corruptions
        out["injected_jitter_delays"] = self.injected_jitter_delays
        return out

    def per_link_counters(self) -> list[tuple[str, int, int]]:
        """``(link name, dropped, corrupted)`` for links that saw faults."""
        return [
            (link.name, link.stats.dropped, link.stats.corrupted)
            for link in self.fabric.iter_links()
            if link.stats.dropped or link.stats.corrupted
        ]
