"""Packages whose exports load on first use (:mod:`repro._lazy`).

Each name a lazy package exports is the very object its home submodule
defines, is listed by ``dir()`` and ``from pkg import *``, and the
package ``__init__`` imports no submodule until one of its names is
read.
"""

import importlib
import pathlib
import subprocess
import sys
import textwrap

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
LAZY = ("repro.network", "repro.recover", "repro.gcm")


@pytest.mark.parametrize("name", LAZY)
def test_every_export_is_its_home_module_object(name):
    pkg = importlib.import_module(name)
    assert pkg.__all__
    for attr in pkg.__all__:
        obj = getattr(pkg, attr)
        assert obj.__module__.startswith(name + "."), (attr, obj.__module__)
        assert getattr(importlib.import_module(obj.__module__), attr) is obj
        assert attr in dir(pkg)


@pytest.mark.parametrize("name", LAZY)
def test_star_import_binds_every_export(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    pkg = importlib.import_module(name)
    assert {attr: namespace[attr] for attr in pkg.__all__} == {
        attr: getattr(pkg, attr) for attr in pkg.__all__}


@pytest.mark.parametrize("name", LAZY)
def test_unknown_name_is_an_attribute_error(name):
    pkg = importlib.import_module(name)
    assert not hasattr(pkg, "no_such_name")
    with pytest.raises(ImportError):
        exec(f"from {name} import no_such_name", {})


def test_importing_a_package_imports_none_of_its_submodules():
    code = textwrap.dedent(f"""
        import sys
        for name in {LAZY!r}:
            __import__(name)
        print(sorted(m for m in sys.modules if m.startswith(tuple(n + "." for n in {LAZY!r}))))
    """)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


def test_a_rebinding_in_the_home_module_shows_through_the_package(monkeypatch):
    import repro.gcm
    import repro.gcm.ocean

    def stand_in(**kw):
        """A stand-in for the model builder."""

    monkeypatch.setattr(repro.gcm.ocean, "ocean_model", stand_in)
    assert repro.gcm.ocean_model is stand_in


def test_host_time_tracer_resolves_its_table():
    """``perf/trace.py`` rebinds table functions in every loaded module;
    only the two ``barrier_time`` rows, inherited from ``CommBackend``
    and so not in their class's own namespace, read as absent."""
    code = textwrap.dedent("""
        from perf.trace import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.uninstall()
        print(sorted(tracer.absent))
    """)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, check=True, cwd=ROOT)
    assert out.stdout.strip() == str(sorted([
        "repro.backend.analytic:AnalyticBackend.barrier_time",
        "repro.backend.des:DESBackend.barrier_time",
    ]))
