"""API quality gates: public-item documentation and import hygiene.

The deliverable contract requires doc comments on every public item;
this test walks the package and enforces it, so the bar cannot silently
erode.
"""

import importlib
import inspect
import pathlib
import pkgutil

import pytest

import repro

PACKAGE_ROOT = pathlib.Path(repro.__path__[0])


def iter_modules():
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield info.name


ALL_MODULES = sorted(iter_modules())


def test_every_module_imports():
    for name in ALL_MODULES:
        importlib.import_module(name)


@pytest.mark.parametrize("name", ALL_MODULES)
def test_module_has_docstring(name):
    mod = importlib.import_module(name)
    assert mod.__doc__ and mod.__doc__.strip(), f"{name} lacks a module docstring"


@pytest.mark.parametrize("name", ALL_MODULES)
def test_public_items_documented(name):
    mod = importlib.import_module(name)
    missing = []
    for attr_name in dir(mod):
        if attr_name.startswith("_"):
            continue
        obj = getattr(mod, attr_name)
        if not (inspect.isfunction(obj) or inspect.isclass(obj)):
            continue
        if getattr(obj, "__module__", None) != name:
            continue  # re-export; documented at home
        if not (obj.__doc__ and obj.__doc__.strip()):
            missing.append(attr_name)
        if inspect.isclass(obj):
            for meth_name, meth in inspect.getmembers(obj, inspect.isfunction):
                if meth_name.startswith("_"):
                    continue
                if meth.__module__ != name:
                    continue
                if not (meth.__doc__ and meth.__doc__.strip()):
                    missing.append(f"{attr_name}.{meth_name}")
    assert not missing, f"{name}: undocumented public items: {missing}"


def test_package_exposes_version_independent_api():
    """The documented top-level entry points must exist."""
    from repro.gcm import atmosphere_model, coupled_model, ocean_model  # noqa: F401
    from repro.core import fig12_table, section53_validation  # noqa: F401
    from repro.hardware import HyadesCluster  # noqa: F401
    from repro.parallel import LockstepRuntime, butterfly_global_sum  # noqa: F401


def test_no_module_shadows_stdlib():
    stdlib = {"time", "math", "random", "types", "io", "os", "sys"}
    leaves = {name.rsplit(".", 1)[-1] for name in ALL_MODULES}
    assert not (leaves & stdlib)


def test_declared_dependencies_are_what_src_imports():
    """``pyproject`` declares exactly the third-party packages that
    ``src/repro`` imports (at module level or inside a function)."""
    import ast
    import re
    import sys
    import tomllib

    imported = set()
    for path in PACKAGE_ROOT.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"repro"}
    pyproject = tomllib.loads((PACKAGE_ROOT.parents[1] / "pyproject.toml").read_text())
    declared = {re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower()
                for d in pyproject["project"]["dependencies"]}
    assert third_party == declared
