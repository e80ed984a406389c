"""Package exports that load on first use (PEP 562, the SPEC 1 pattern).

A package ``__init__`` names its exports and the submodule each lives
in, and imports none of them::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "fabrics": ["FatTreeParams"],
        "topology": ["FatTree"],
    })

so importing one submodule (``repro.network.costmodel``) does not import
its siblings (the router, the fabrics, the DES under them); reading
``repro.network.FatTree`` imports ``repro.network.topology`` then.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``, whose
    ``exports`` map a submodule's name to the names it exports.

    A name is looked up in its submodule on every read and never cached
    on the package, so a rebinding in the submodule (a tracer's wrapper,
    a test's ``monkeypatch``) is what the package hands out too.
    """
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        if name not in home:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        return getattr(importlib.import_module(f"{package}.{home[name]}"), name)

    def __dir__() -> List[str]:
        return list(home)

    return __getattr__, __dir__, list(home)
