"""The unified benchmark emitter: schema'd BENCH_<name>.json records."""

import json

import pytest

from repro.obs.bench import bench_record, read_bench, write_bench


def test_record_has_the_three_uniform_fields():
    rec = bench_record("demo")
    assert rec["virtual_time_s"] is None
    assert rec["model_error"] is None
    assert rec["data"] == {}
    assert rec["kind"] == "benchmark"


def test_record_rejects_schema_violations():
    with pytest.raises(ValueError, match="name"):
        bench_record(None)
    with pytest.raises(ValueError):
        bench_record("demo", model_error={"x": "not-a-number"})


def test_write_and_read_round_trip(tmp_path):
    path = write_bench(
        tmp_path,
        "fig09_coupled",
        virtual_time_s=0.002,
        model_error={"combined_gflops": -0.04},
        data={"windows": 3},
        units={"virtual_time_s": "s"},
    )
    assert path.name == "BENCH_fig09_coupled.json"
    rec = read_bench(path)
    assert rec["virtual_time_s"] == 0.002
    assert rec["model_error"] == {"combined_gflops": -0.04}
    assert rec["data"] == {"windows": 3}
    assert rec["units"]["virtual_time_s"] == "s"


def test_write_creates_out_dir(tmp_path):
    path = write_bench(tmp_path / "nested" / "out", "x")
    assert path.exists()


def test_read_rejects_tampered_record(tmp_path):
    path = write_bench(tmp_path, "x")
    rec = json.loads(path.read_text())
    del rec["data"]
    path.write_text(json.dumps(rec))
    with pytest.raises(ValueError, match="data"):
        read_bench(path)


def test_equal_inputs_serialise_to_identical_bytes(tmp_path):
    """No timestamp, host time or platform field: a record is a pure
    function of its inputs, so ``benchmarks/out/`` can be diffed."""
    kwargs = dict(
        virtual_time_s=1.688e-05,
        model_error={"gsum_16": -0.073},
        data={"rows": [1, 2.5, "x"]},
    )
    assert bench_record("demo", **kwargs) == bench_record("demo", **kwargs)
    a = write_bench(tmp_path / "a", "demo", **kwargs).read_bytes()
    b = write_bench(tmp_path / "b", "demo", **kwargs).read_bytes()
    assert a == b


def test_record_carrying_host_time_is_rejected(tmp_path):
    with pytest.raises(TypeError):
        bench_record("demo", wall_clock_s=0.25)
    path = write_bench(tmp_path, "x")
    rec = json.loads(path.read_text())
    rec["wall_clock_s"] = 0.25
    path.write_text(json.dumps(rec))
    with pytest.raises(ValueError, match="wall_clock_s"):
        read_bench(path)
