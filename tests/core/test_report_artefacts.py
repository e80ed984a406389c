"""``repro report KEY`` is the committed artefact, and its cells are
formatted from the numbers the section carries.

For each of the seven paper tables: the rendering equals the file under
``benchmarks/out/`` byte for byte, the raw ``values`` re-format to the
cells they stand beside, and the ``paper`` side equals the named
constants of :mod:`repro.core.constants` / :mod:`repro.network.overheads`.
"""

from pathlib import Path

import pytest

from repro.cli import main
from repro.core import constants as C
from repro.core.report import SECTIONS
from repro.network import costmodel as M

OUT = Path(__file__).resolve().parents[2] / "benchmarks" / "out"

ARTEFACTS = {
    "fig2": "fig02_logp.txt",
    "fig7": "fig07_bandwidth.txt",
    "fig8": "fig08_globalsum.txt",
    "fig10": "fig10_sustained.txt",
    "fig11": "fig11_params.txt",
    "fig12": "fig12_pfpp.txt",
    "sec53": "sec53_validation.txt",
}


@pytest.fixture(scope="module")
def sections():
    return {key: SECTIONS[key]() for key in ARTEFACTS}


def us(seconds, digits=1):
    return f"{seconds * 1e6:.{digits}f}"


def mega(per_second, digits=1):
    return f"{per_second / 1e6:.{digits}f}"


def minutes(seconds, digits):
    return f"{seconds / 60.0:.{digits}f}"


@pytest.mark.parametrize("key", ARTEFACTS)
def test_rendering_is_the_committed_artefact(sections, key):
    assert sections[key].render() == (OUT / ARTEFACTS[key]).read_text()


def test_cli_prints_the_artefact_bytes(capsys):
    assert main(["report", "sec53", "fig10"]) == 0
    texts = [(OUT / ARTEFACTS[k]).read_text() for k in ("sec53", "fig10")]
    assert capsys.readouterr().out == "\n".join(texts)


@pytest.mark.parametrize("key", ARTEFACTS)
def test_every_paper_number_has_a_reproduced_one(sections, key):
    sec = sections[key]
    assert sec.paper and set(sec.paper) <= set(sec.values)
    assert all(isinstance(v, (int, float)) for v in sec.values.values())


def cell(sec, row_label, header):
    row = next(r for r in sec.rows if r[0] == row_label)
    return row[sec.headers.index(header)]


class TestCellsAreFormattedFromTheValues:
    def test_fig2(self, sections):
        sec = sections["fig2"]
        columns = {"os": "Os", "or": "Or", "half_rtt": "Trt/2", "latency": "Lnet"}
        for size in (8, 64):
            for q, header in columns.items():
                want = f"{us(sec.values[size, q], 2)} ({us(sec.paper[size, q])})"
                assert cell(sec, str(size), header) == want

    def test_fig7(self, sections):
        sec = sections["fig7"]
        for s in (4, 32):
            assert (s, "des") not in sec.values
            assert cell(sec, str(s), "DES measured (MB/s)") == "-"
        for s in (64, 1024, 131072):
            assert cell(sec, str(s), "DES measured (MB/s)") == mega(sec.values[s, "des"])
            assert cell(sec, str(s), "analytic model (MB/s)") == mega(sec.values[s, "model"])
        assert len(sec.rows) == 16
        assert f"({us(sec.values['fit_overhead'], 2)} us" in sec.footer
        assert f"s / {mega(sec.values['fit_bandwidth'])} MB/s)" in sec.footer
        assert sec.footer.endswith(
            f"{us(M.TRANSFER_OVERHEAD)} us, {mega(M.TRANSFER_BANDWIDTH, 0)} MB/s\n"
        )

    def test_fig8(self, sections):
        sec = sections["fig8"]
        for n in (2, 4, 8, 16):
            got = [cell(sec, f"{n}-way", h) for h in sec.headers[1:]]
            v, p = sec.values, sec.paper
            assert got == [
                us(v[n, "des"]), us(p[n, "des"]),
                us(v[n, "fit"], 2), us(p[n, "fit"], 2),
                us(v[n, "smp"]), us(p[n, "smp"]),
            ]
        assert f"tgsum = {us(sec.values['fit_slope'], 2)} log2 N" in sec.footer
        assert f"{sec.values['fit_offset'] * 1e6:+.2f} us;" in sec.footer

    def test_fig10(self, sections):
        sec = sections["fig10"]
        for (machine, cpus), gflops in sec.values.items():
            row = next(r for r in sec.rows if r[:2] == [machine, str(cpus)])
            assert row[2] == f"{gflops:.3f}"
            paper = sec.paper.get((machine, cpus))
            assert row[3] == ("-" if paper is None else f"{paper:.3f}")
        assert len(sec.values) == len(sec.rows) == 8

    def test_fig11(self, sections):
        sec = sections["fig11"]
        v = sec.values
        assert cell(sec, "Nps (atmos, flops/cell)", "reproduction") == f"{v['nps']:.0f} (counted)"
        assert cell(sec, "Nds (flops/col/iter)", "reproduction") == f"{v['nds']:.0f} (counted)"
        for label, q in (
            ("texchxyz atmos (us)", "texchxyz_atm"),
            ("texchxyz ocean (us)", "texchxyz_ocn"),
            ("texchxy (us)", "texchxy"),
            ("tgsum 2x8-way (us)", "tgsum"),
        ):
            assert cell(sec, label, "reproduction") == us(v[q])
            assert cell(sec, label, "paper") == us(sec.paper[q])
        assert cell(sec, "nxyz (atmos)", "reproduction").startswith(f"{C.ATM_PS_PARAMS.nxyz} (")
        assert cell(sec, "nxyz (ocean)", "reproduction").startswith(f"{C.OCN_PS_PARAMS.nxyz} (")
        assert cell(sec, "nxy (per master)", "reproduction").startswith(f"{C.DS_PARAMS.nxy} (")

    def test_fig12(self, sections):
        sec = sections["fig12"]
        v, p = sec.values, sec.paper
        for name in C.FIG12_PAPER:
            for q in ("tgsum", "texchxy", "texchxyz"):
                assert cell(sec, name, q) == f"{us(v[name, q])} ({us(p[name, q])})"
            assert cell(sec, name, "Pfpp,ps") == (
                f"{mega(v[name, 'pfpp_ps'])} ({mega(p[name, 'pfpp_ps'], 0)})"
            )
            assert cell(sec, name, "Pfpp,ds") == (
                f"{mega(v[name, 'pfpp_ds'], 2)} ({mega(p[name, 'pfpp_ds'])})"
            )

    def test_sec53(self, sections):
        sec = sections["sec53"]
        for label, q, digits, paper_digits in (
            ("Tcomm (min)", "tcomm", 1, 1),
            ("Tcomp (min)", "tcomp", 1, 0),
            ("predicted total (min)", "predicted_total", 0, 0),
            ("observed wall-clock (min)", "observed", 0, 0),
        ):
            assert cell(sec, label, "reproduction") == minutes(sec.values[q], digits)
            assert cell(sec, label, "paper") == minutes(sec.paper[q], paper_digits)
        err = sec.values["relative_error"]
        assert cell(sec, "model error", "reproduction") == f"{err * 100:+.1f}%"


class TestPaperColumnIsTheNamedConstants:
    def test_fig2(self, sections):
        paper = sections["fig2"].paper
        for size, ref in C.FIG2_PAPER.items():
            assert tuple(paper[size, q] for q in ("os", "or", "half_rtt", "latency")) == ref

    def test_fig7(self, sections):
        assert sections["fig7"].paper == {
            "fit_overhead": M.TRANSFER_OVERHEAD,
            "fit_bandwidth": M.TRANSFER_BANDWIDTH,
        }

    def test_fig8(self, sections):
        paper = sections["fig8"].paper
        assert paper["fit_slope"] == M.ARCTIC_GSUM_SLOPE
        assert paper["fit_offset"] == M.ARCTIC_GSUM_OFFSET
        for n in (2, 4, 8, 16):
            assert paper[n, "des"] == M.ARCTIC_GSUM_MEASURED[n]
            assert paper[n, "smp"] == M.ARCTIC_GSUM_SMP_MEASURED[n]
            k = n.bit_length() - 1
            assert paper[n, "fit"] == M.ARCTIC_GSUM_SLOPE * k + M.ARCTIC_GSUM_OFFSET

    def test_fig10(self, sections):
        assert sections["fig10"].paper == {
            ("Hyades", 1): C.HYADES_1CPU_SUSTAINED / 1e9,
            ("Hyades", 16): C.HYADES_16CPU_SUSTAINED / 1e9,
        }

    def test_fig11(self, sections):
        assert sections["fig11"].paper == {
            "nps": C.ATM_PS_PARAMS.nps,
            "nds": C.DS_PARAMS.nds,
            "texchxyz_atm": C.ATM_PS_PARAMS.texchxyz,
            "texchxyz_ocn": C.OCN_PS_PARAMS.texchxyz,
            "texchxy": C.DS_PARAMS.texchxy,
            "tgsum": C.DS_PARAMS.tgsum,
        }

    def test_fig12(self, sections):
        paper = sections["fig12"].paper
        assert paper == {
            (name, q): ref for name, row in C.FIG12_PAPER.items() for q, ref in row.items()
        }

    def test_sec53(self, sections):
        paper, ref = sections["sec53"].paper, C.VALIDATION
        assert paper["tcomm"] == ref.predicted_tcomm
        assert paper["tcomp"] == ref.predicted_tcomp
        assert paper["predicted_total"] == ref.predicted_tcomm + ref.predicted_tcomp
        assert paper["observed"] == ref.observed_wallclock


def test_quoted_paper_numerals_are_not_literals():
    """The numerals the tables quote live in the constants modules, not
    in the builders or the seven benchmarks that write them."""
    repo = OUT.parents[1]
    files = [repo / "src" / "repro" / "core" / "report.py"] + [
        repo / "benchmarks" / f"bench_{name}.py"
        for name in (
            "fig02_logp", "fig07_bandwidth", "fig08_globalsum", "fig10_sustained",
            "fig11_params", "fig12_pfpp", "sec53_validation",
        )
    ]
    numerals = ("30.1", "151", "181", "183", "4.67", "0.95 us", "8.6 us", "110 MB/s", "5120 / 15360")
    for path in files:
        text = path.read_text()
        assert [n for n in numerals if n in text] == [], path.name
