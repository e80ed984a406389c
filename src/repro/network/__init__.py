"""The Arctic Switch Fabric and baseline interconnects.

Implements the paper's system-area network substrate (Section 2.2):

* :mod:`repro.network.packet` — the StarT-X message format of Fig. 1(b),
  CRC-protected, two priorities, 2–22 payload words.
* :mod:`repro.network.crc` — CRC-16/CCITT used to verify packets at every
  router stage and at the endpoints.
* :mod:`repro.network.router` — the Arctic 4x4 router model: cut-through
  forwarding, <0.15 us per stage, 150 MB/s links, high priority never
  blocked behind low.
* :mod:`repro.network.fattree` — the full fat tree as data: butterfly
  wiring, deterministic down-routing and random/deterministic up-routing.
* :mod:`repro.network.topology` — the machine shapes (fat tree, grids,
  hyper-crossbar, hub), each stating its wiring and its route once.
* :mod:`repro.network.fabrics` — the one DES fabric built from them.
* :mod:`repro.network.costmodel` / :mod:`repro.network.myrinet` — analytic
  cost models of the Fast Ethernet, Gigabit Ethernet (Fig. 12) and
  HPVM/Myrinet (Section 6) baselines.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "fabrics": ["FatTreeParams"],
    "topology": ["FatTree"],
})
