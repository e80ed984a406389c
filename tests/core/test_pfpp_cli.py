"""``repro pfpp --nodes``: what was typed is what is swept.

The scoreboard used to take "equals the --backend sweep's default" for
"not given", so spelling that default out printed 256/1024/4096.  The
sweep now lives only under ``repro backend --sweep``.
"""

import pytest

from repro.cli import main


def node_column(capsys, argv):
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    return [int(line.split()[0]) for line in lines if line.split()[0].isdigit()]


def test_scoreboard_runs_the_nodes_that_were_typed(capsys):
    argv = ["pfpp", "--topology", "fattree", "--nodes", "16", "64", "256", "1024", "4096"]
    assert node_column(capsys, argv) == [16, 64, 256, 1024, 4096]


def test_each_mode_has_its_own_default(capsys):
    assert node_column(capsys, ["pfpp", "--topology", "fattree"]) == [256, 1024, 4096]
    with pytest.raises(SystemExit) as exc:
        main(["pfpp", "--backend", "analytic"])
    assert exc.value.code == 2
