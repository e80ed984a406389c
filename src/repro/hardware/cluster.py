"""Assembly of the full Hyades cluster (paper Section 2).

Builds the discrete-event engine, the Arctic fat tree, one StarT-X NIU
per node and the SMP nodes around them, plus the cost accounting the
paper leads with: "total cost of the hardware is less than $100,000,
about evenly divided between the processing nodes and the interconnect".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.sim import Engine
from repro.network.errors import EndpointCountError
from repro.network.fabrics import FabricParams
from repro.network.topology import FatTree
from repro.niu.pci import PCIBus, PCIParams
from repro.niu.startx import StarTX
from repro.hardware.smp import SMPNode, SMPParams


@dataclass(frozen=True)
class HyadesConfig:
    """Cluster shape and per-unit prices (1999 dollars).

    ``n_spares`` reserves the highest ``n_spares`` node ids as hot
    spares: they are wired into the fabric and powered (they heartbeat
    like any other node) but host no decomposition ranks until a crash
    remaps a dead node's tiles onto one.
    """

    n_nodes: int = 16
    smp: SMPParams = field(default_factory=SMPParams)
    pci: PCIParams = field(default_factory=PCIParams)
    fabric: FabricParams = field(default_factory=FabricParams)
    node_price_usd: float = 3_100.0
    interconnect_price_per_node_usd: float = 3_100.0
    n_spares: int = 0

    def __post_init__(self) -> None:
        # Validate at the config boundary, not deep inside fabric
        # wiring: the fat tree only exists for power-of-two node counts.
        if (
            not isinstance(self.n_nodes, int)
            or self.n_nodes < 2
            or self.n_nodes & (self.n_nodes - 1)
        ):
            raise EndpointCountError(
                self.n_nodes,
                "a power-of-two node count >= 2",
                topology="Hyades fat tree",
            )
        if not (0 <= self.n_spares < self.n_nodes):
            raise ValueError(
                f"n_spares must be in [0, n_nodes), got {self.n_spares} "
                f"of {self.n_nodes} nodes"
            )

    @property
    def spare_ids(self) -> tuple[int, ...]:
        """Node ids reserved as hot spares (the highest ones)."""
        return tuple(range(self.n_nodes - self.n_spares, self.n_nodes))

    @property
    def total_cpus(self) -> int:
        return self.n_nodes * self.smp.cpus_per_node

    @property
    def hardware_cost_usd(self) -> float:
        return self.n_nodes * (self.node_price_usd + self.interconnect_price_per_node_usd)


class HyadesCluster:
    """The simulated sixteen-SMP Hyades machine."""

    def __init__(self, config: Optional[HyadesConfig] = None) -> None:
        self.config = config or HyadesConfig()
        self.engine = Engine()
        self.fabric = FatTree(self.engine, self.config.n_nodes, self.config.fabric)
        self.nodes: list[SMPNode] = []
        for nid in range(self.config.n_nodes):
            pci = PCIBus(self.engine, self.config.pci)
            niu = StarTX(self.engine, self.fabric, nid, pci=pci)
            self.nodes.append(SMPNode(self.engine, nid, niu, self.config.smp))

    @property
    def n_nodes(self) -> int:
        return self.config.n_nodes

    @property
    def total_cpus(self) -> int:
        return self.config.total_cpus

    def node(self, nid: int) -> SMPNode:
        """The SMP node with id ``nid``."""
        return self.nodes[nid]

    def niu(self, nid: int) -> StarTX:
        """Node ``nid``'s StarT-X network interface."""
        return self.nodes[nid].niu

    @property
    def spare_ids(self) -> tuple[int, ...]:
        """Node ids reserved as hot spares by the configuration."""
        return self.config.spare_ids
