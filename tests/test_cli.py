"""The ``repro`` command line: every command's cheap path through ``main``.

A command prints report sections and ``format_table`` tables; a flag set
outside the mode it needs, or a value a library check rejects, is one
line on stderr and exit status 2.
"""

import pytest

from repro.cli import main
from repro.core.report import SECTIONS, format_table

#: The four fault smokes of ``scripts/ci.sh``, each with a row of its
#: table (or, for the watchdog's diagnostic, a line under it).
FAULT_SMOKES = {
    "reliable": (["faults", "--seed", "7", "--drop", "0.01", "--corrupt", "0.002",
                  "--windows", "1"], ("coupled state bit-exact", "True")),
    "no-retry": (["faults", "--seed", "7", "--drop", "0.02", "--windows", "1", "--no-retry"],
                 "halo[rank0.node0]"),
    "crash": (["faults", "--crash", "1@auto"], ("detection latency (us)", "251")),
    "no-recover": (["faults", "--crash", "1@auto", "--no-recover"],
                   ("structured error", "DeliveryError")),
}


def run(capsys, argv):
    rc = main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


def tables(out: str) -> list:
    """``(block, rebuilt, rows)`` per table printed in ``out``: its lines,
    what ``format_table`` makes of the cells read back from them, and
    those cells."""
    lines = out.splitlines()
    found = []
    for i in range(len(lines) - 3):
        title, rule, head, dashes = lines[i:i + 4]
        if not title or rule != "=" * len(title) or set(dashes) - {"-", " "}:
            continue
        starts = [0]
        for width in (len(d) for d in dashes.split("  ")[:-1]):
            starts.append(starts[-1] + width + 2)

        def cells(line):
            return [line[a:b].rstrip() for a, b in zip(starts, starts[1:] + [None])]

        body = []
        for line in lines[i + 4:]:
            if len(line) != len(dashes):
                break
            body.append(cells(line))
        block = "\n".join(lines[i:i + 4 + len(body)]) + "\n"
        found.append((block, format_table(title, cells(head), body), body))
    return found


def cell_pairs(out: str) -> set:
    """``(first cell, second cell)`` of every table row in ``out``."""
    return {tuple(row[:2]) for _, _, body in tables(out) for row in body}


def test_faults_prints_its_report_section(capsys):
    rc, out, _ = run(capsys, FAULT_SMOKES["reliable"][0])
    assert rc == 0
    assert out == SECTIONS["faults"]().render()


def test_bare_pfpp_prints_the_fig12_section(capsys):
    assert run(capsys, ["pfpp"]) == (0, SECTIONS["fig12"]().render(), "")


@pytest.mark.parametrize("name", FAULT_SMOKES)
def test_ci_fault_smokes_exit_0(capsys, name):
    argv, shows = FAULT_SMOKES[name]
    rc, out, _ = run(capsys, argv)
    assert rc == 0
    assert shows in (out if isinstance(shows, str) else cell_pairs(out))


def test_crash_recovery_numbers(capsys):
    _, out, _ = run(capsys, FAULT_SMOKES["crash"][0])
    assert {
        ("checkpoint tax (ms)", "0.45"),
        ("rollback cost (ms)", "0.45"),
        ("coupled state bit-exact", "True"),
    } <= cell_pairs(out)


def test_second_crash_exhausting_the_spares_exits_1(capsys):
    rc, out, _ = run(capsys, ["faults", "--crash", "1@auto", "--crash", "7@auto"])
    assert rc == 1
    assert "UnrecoverableError" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "sec53"],
        ["run", "--nx", "32", "--ny", "16", "--nz", "4", "--steps", "2", "--dt", "600"],
        ["backend"],
        ["pfpp", "--best-collectives"],
        ["pfpp", "--topology", "fattree", "--nodes", "64"],
        ["collectives"],
        ["collectives", "--sweep", "--nodes", "8"],
        ["service", "--workers", "2", "--max-attempts", "2"],
        ["century"],
    ],
    ids=" ".join,
)
def test_command_prints_format_table_output(capsys, argv):
    rc, out, _ = run(capsys, argv)
    assert rc == 0
    found = tables(out)
    assert found
    for block, rebuilt, _ in found:
        assert block == rebuilt


def test_trace_writes_and_tabulates(capsys, tmp_path):
    rc, out, _ = run(capsys, ["trace", str(tmp_path / "t.json"), "--windows", "1"])
    assert rc == 0 and (tmp_path / "t.json").exists()
    assert [block == rebuilt for block, rebuilt, _ in tables(out)] == [True, True]


@pytest.mark.parametrize("command", ["campaign", "tune-precision"])
def test_batch_commands_in_process(capsys, tmp_path, command):
    rc, out, _ = run(capsys, [command, "--smoke", "--in-process", "--out", str(tmp_path)])
    assert rc == 0
    assert str(tmp_path) in out


def test_service_serve_drains_an_empty_root(capsys, tmp_path):
    rc, out, _ = run(capsys, ["service", "--serve", "--dir", str(tmp_path), "--drain"])
    assert rc == 0 and "served: 0 completed" in out


@pytest.mark.parametrize(
    "case",
    [
        (["pfpp", "--crossval", "--precision", "wire32"], "pfpp: --crossval needs --topology"),
        (["backend", "--json", "x.json"], "backend: --json needs --crossval or --sweep"),
        (["collectives", "--sweep", "--nbytes", "999", "--priority", "high"],
         "collectives: --nbytes needs a single plan (no --sweep)"),
        (["service", "--drain"], "service: --drain needs --serve"),
    ],
    ids=lambda case: " ".join(case[0]),
)
def test_flag_outside_its_mode_exits_2(capsys, case):
    argv, line = case
    assert run(capsys, argv) == (2, "", line + "\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["pfpp", "--topology", "fattree", "--nodes", "100"],
        ["backend", "--sweep", "--nodes", "3"],
        ["collectives", "--nodes", "0"],
        ["faults", "--drop", "1.5"],
        ["pfpp", "--topology", "bogus"],
    ],
    ids=" ".join,
)
def test_rejected_input_is_one_line_and_exit_2(capsys, argv):
    rc, out, err = run(capsys, argv)
    assert rc == 2 and out == ""
    assert err.startswith(f"{argv[0]}: ") and err.count("\n") == 1
