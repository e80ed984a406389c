#!/usr/bin/env python3
"""Fail when DESIGN.md or docs/*.md names a module that does not exist.

A backticked dotted name whose first component (after an optional
``repro.``) is a package under ``src/repro/`` must resolve there:
``pkg.module`` to ``src/repro/pkg/module.py`` (or a sub-package),
``pkg.*`` to the package, and ``pkg.name`` otherwise to an attribute the
package exports.  Run from the repository root with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import importlib
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
DOTTED = re.compile(r"`(?:repro\.)?([a-z_]+)\.([a-z_*][a-z0-9_*]*)[\w.]*(?:\(\))?`")


def missing(text: str) -> list[str]:
    """Dotted names in ``text`` that resolve to nothing under src/repro."""
    bad = []
    for pkg, name in DOTTED.findall(text):
        if not (SRC / pkg).is_dir():
            continue  # not one of ours (np.roll, rt.backend, ...)
        if name == "*" or (SRC / pkg / f"{name}.py").is_file() or (SRC / pkg / name).is_dir():
            continue
        if not hasattr(importlib.import_module(f"repro.{pkg}"), name):
            bad.append(f"{pkg}.{name}")
    return bad


def main() -> int:
    failures = 0
    for path in [ROOT / "DESIGN.md", *sorted((ROOT / "docs").glob("*.md"))]:
        for name in missing(path.read_text()):
            print(f"{path.relative_to(ROOT)}: `{name}` resolves to no file under src/repro/")
            failures += 1
    if not failures:
        print("docs-modules: every backticked pkg.module resolves")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
