"""Hyades cluster hardware (paper Section 2).

Sixteen two-way Intel PII/400 SMP nodes, each with 512 MB of PC100 SDRAM
and one StarT-X PCI NIU into the Arctic Switch Fabric; total hardware
cost under $100k, split about evenly between nodes and interconnect.
An SMP's measurable costs are constants where they are read: the PCI
bus in :mod:`repro.niu.pci`, the intra-SMP combine, strided copy and
slave relay in :mod:`repro.network.overheads`, the flop rates in
:mod:`repro.parallel.runtime`.
"""

from repro.hardware.cluster import HyadesConfig, HyadesCluster
from repro.hardware.vector_machines import VECTOR_MACHINES, fig10_reference_rows

__all__ = [
    "HyadesConfig",
    "HyadesCluster",
    "VECTOR_MACHINES",
    "fig10_reference_rows",
]
