"""Knob budget: the settable values of the degraded-mode stack, of the
two communication primitives, of the whole library and of the ``repro``
command line, counted.

A value stays settable only if a caller outside tests and examples sets
it, or two such callers need different values; every other tuning value
is a named module constant next to the code that reads it (a test that
needs another value monkeypatches the constant).  Each class or
constructor below is counted by its signature: every field of a config
dataclass, every constructor parameter that is not the object it wraps.
A deleted class counts 0.  A subcommand of ``repro`` counts its flags and
positionals (``--help`` aside); a flag stays only if a doc, an example,
``scripts/ci.sh`` or a benchmark runs it.  Library-wide, every defaulted
parameter of a public module-level function, of a public class's public
method and of its ``__init__`` under ``src/repro`` is counted (nested
defs are not).  The pin is exact: lower it when a knob goes, and raise
it only for a knob a non-test caller sets.

Run as a script to print the table: ``python tests/test_knob_budget.py``.
"""

import argparse
import ast
import importlib
import inspect
import pathlib

#: (module, name, parameters that are inputs rather than knobs) -> pin
PINNED = {
    ("repro.service.supervisor", "SupervisorConfig", ()): 6,
    ("repro.service.api", "ServiceConfig", ()): 1,
    ("repro.service.degrade", "DegradeConfig", ()): 0,
    ("repro.service.chaos", "ChaosConfig", ()): 7,
    ("repro.recover.membership", "SuspicionConfig", ()): 0,
    ("repro.recover.membership", "PhiAccrualDetector", ()): 0,
    ("repro.recover.membership", "HeartbeatConfig", ()): 2,
    ("repro.recover.membership", "HeartbeatService", ("cluster", "membership")): 1,
    ("repro.recover.manager", "RecoveryConfig", ()): 4,
    ("repro.recover.checkpoint", "FileLock", ("path",)): 0,
    ("repro.recover.checkpoint", "CoordinatedCheckpointStore", ("directory",)): 0,
    ("repro.niu.reliable", "ReliableNIU", ("niu",)): 0,
    ("repro.parallel.runtime", "StragglerConfig", ()): 0,
    ("repro.parallel.runtime", "StragglerMitigator", ("runtime",)): 0,
    ("repro.parallel.exchange", "HaloExchanger", ("decomp",)): 0,
    ("repro.parallel.globalsum", "GlobalSummer", ("n_ranks",)): 1,
}

#: Defaulted parameters of every public def under ``src/repro``.
LIBRARY_PINNED = 358

#: ``repro`` subcommand -> its flags and positionals
CLI_PINNED = {
    "report": 1,
    "trace": 2,
    "run": 7,
    "backend": 5,
    "faults": 8,
    "pfpp": 6,
    "collectives": 6,
    "service": 11,
    "campaign": 6,
    "tune-precision": 5,
    "century": 0,
}


def settable(module: str, name: str, inputs: tuple) -> int:
    """Independently settable values of ``module.name`` (0 if deleted)."""
    obj = getattr(importlib.import_module(module), name, None)
    if obj is None:
        return 0
    params = inspect.signature(obj).parameters
    return sum(1 for p in params if p not in inputs)


def counts() -> dict:
    return {key: settable(*key) for key in PINNED}


def _defaulted(fn: ast.AST) -> int:
    args = fn.args
    return len(args.defaults) + sum(d is not None for d in args.kw_defaults)


def library_counts() -> dict:
    """Module -> defaulted parameters of its public defs."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    out = {}
    for path in sorted((src / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        n = 0
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                n += _defaulted(node)
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                n += sum(
                    _defaulted(m)
                    for m in node.body
                    if isinstance(m, ast.FunctionDef)
                    and (not m.name.startswith("_") or m.name == "__init__")
                )
        out[module] = n
    return out


def cli_counts() -> dict:
    from repro.cli import build_parser

    sub = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return {
        name: sum(1 for a in parser._actions if not isinstance(a, argparse._HelpAction))
        for name, parser in sub.choices.items()
    }


def test_each_entry_matches_its_pin():
    assert counts() == PINNED


def test_library_matches_its_pin():
    assert sum(library_counts().values()) == LIBRARY_PINNED


def test_each_cli_command_matches_its_pin():
    assert cli_counts() == CLI_PINNED


def test_get_reliable_forwards_no_knobs():
    """The layer's tuning cannot come back through the accessor that
    builds it."""
    from repro.niu.reliable import get_reliable

    assert list(inspect.signature(get_reliable).parameters) == ["niu"]


if __name__ == "__main__":
    got = counts()
    for (module, name, _), n in got.items():
        print(f"{module + '.' + name:<52} {n:>3}")
    print(f"knob-budget: {sum(got.values())} settable values (pinned {sum(PINNED.values())})")
    lib = library_counts()
    for module, n in lib.items():
        if n:
            print(f"{module:<52} {n:>3}")
    print(f"knob-budget: {sum(lib.values())} defaulted parameters (pinned {LIBRARY_PINNED})")
    cli = cli_counts()
    for command, n in cli.items():
        print(f"repro {command:<46} {n:>3}")
    print(f"knob-budget: {sum(cli.values())} CLI settable values (pinned {sum(CLI_PINNED.values())})")
