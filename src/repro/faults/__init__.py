"""Deterministic fault injection for the Arctic fabric and NIUs.

The paper's software stack assumes "error-free operation" because the
hardware verifies CRC at every router stage (Section 2.2) — but a model
of a production machine must also exercise the error paths.  This
package provides:

* :class:`FaultPlan` — a seeded, declarative schedule of faults:
  per-link bit corruption and whole-packet drops (probabilistic, but
  deterministic for a given seed), transient bandwidth/latency
  degradation windows, CPU slowdowns, flaky-NIC jitter, node stalls and
  node crashes.  A campaign job carries its scenario's parameters and
  rebuilds the plan (:func:`repro.faults.campaign.build_plan`).
* :class:`FaultInjector` — wires a plan into a :class:`~repro.network.fabrics.Fabric`
  through the sanctioned ``Link``/NIU hooks (no monkeypatching) and
  keeps aggregate fault counters.
* :class:`DegradationSchedule` — the *pricing* view of the same plan,
  consulted by the lockstep runtime and every backend tier so degraded
  nodes are costed consistently everywhere.
* :func:`run_coupled_fault_demo` — the headline experiment: a coupled
  GCM integration whose coupling fields ride the simulated fabric under
  injected faults, completing bit-exact versus the fault-free run.
* :mod:`repro.faults.campaign` — the systematic fault-campaign runner
  behind ``repro campaign`` (imported lazily; it pulls in the service
  stack).
"""

from repro.faults.plan import (
    BandwidthEvent,
    CrashEvent,
    FaultPlan,
    JitterEvent,
    LinkFaultModel,
    SlowdownEvent,
    StallEvent,
)
from repro.faults.degrade import DegradationSchedule
from repro.faults.inject import FaultInjector
from repro.faults.demo import run_coupled_fault_demo, run_crash_recovery_demo

__all__ = [
    "BandwidthEvent",
    "CrashEvent",
    "FaultPlan",
    "JitterEvent",
    "LinkFaultModel",
    "SlowdownEvent",
    "StallEvent",
    "DegradationSchedule",
    "FaultInjector",
    "run_coupled_fault_demo",
    "run_crash_recovery_demo",
]
