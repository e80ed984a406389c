"""Assembly of the full Hyades cluster (paper Section 2).

Builds the discrete-event engine, the Arctic fat tree and one StarT-X
NIU (with its node's PCI bus) per node, plus the cost accounting the
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
from repro.niu.startx import StarTX

#: Per-node prices (1999 dollars): a two-way PII/400 SMP, and its share
#: of the interconnect (StarT-X card plus Arctic ports).
NODE_PRICE_USD = 3_100.0
INTERCONNECT_PRICE_PER_NODE_USD = 3_100.0


@dataclass(frozen=True)
class HyadesConfig:
    """Cluster shape.

    ``n_spares`` reserves the highest ``n_spares`` node ids as hot
    spares: they are wired into the fabric and powered (they heartbeat
    like any other node) but host no decomposition ranks until a crash
    remaps a dead node's tiles onto one.
    """

    n_nodes: int = 16
    fabric: FabricParams = field(default_factory=FabricParams)
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
    def hardware_cost_usd(self) -> float:
        return self.n_nodes * (NODE_PRICE_USD + INTERCONNECT_PRICE_PER_NODE_USD)


class HyadesCluster:
    """The simulated sixteen-SMP Hyades machine."""

    def __init__(self, config: Optional[HyadesConfig] = None) -> None:
        self.config = config or HyadesConfig()
        self.engine = Engine()
        self.fabric = FatTree(self.engine, self.config.n_nodes, self.config.fabric)
        self.nius = [
            StarTX(self.engine, self.fabric, nid) for nid in range(self.config.n_nodes)
        ]

    @property
    def n_nodes(self) -> int:
        return self.config.n_nodes

    def niu(self, nid: int) -> StarTX:
        """Node ``nid``'s StarT-X network interface."""
        return self.nius[nid]

    @property
    def spare_ids(self) -> tuple[int, ...]:
        """Node ids reserved as hot spares by the configuration."""
        return self.config.spare_ids
