"""PrecisionConfig: presets, JSON round trip and dtype plumbing."""

import json

import numpy as np
import pytest

from repro.precision import (
    PRECISION_FIELDS,
    SITES,
    PrecisionConfig,
    resolve_precision,
)


class TestPresets:
    def test_all64_is_all64(self):
        cfg = PrecisionConfig.preset("all64")
        assert all(
            cfg.precision(f, s) == "float64" for f in PRECISION_FIELDS for s in SITES
        )

    def test_wire32_narrows_only_the_wires(self):
        cfg = PrecisionConfig.preset("wire32")
        for f in PRECISION_FIELDS:
            assert cfg.precision(f, "state") == "float64"
            assert cfg.precision(f, "cg_internals") == "float64"
            assert cfg.precision(f, "exchange_wire") == "float32"
            assert cfg.precision(f, "gsum_wire") == "float32"

    def test_all32(self):
        cfg = PrecisionConfig.preset("all32")
        assert all(
            cfg.precision(f, s) == "float32" for f in PRECISION_FIELDS for s in SITES
        )

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            PrecisionConfig.preset("half")


class TestJsonRoundTrip:
    @pytest.mark.parametrize("preset", ["all64", "wire32", "all32"])
    def test_presets_round_trip(self, preset):
        cfg = PrecisionConfig.preset(preset)
        again = PrecisionConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg

    def test_with_cells_round_trips(self):
        cfg = PrecisionConfig.preset("all32").with_cells(
            [("theta", "state"), ("ps", "exchange_wire")], "float64"
        )
        again = PrecisionConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert again.precision("theta", "state") == "float64"
        assert again.precision("u", "state") == "float32"

    def test_bad_cell_rejected(self):
        with pytest.raises(ValueError):
            PrecisionConfig.preset("all64").with_cells(
                [("vorticity", "state")], "float32"
            )


class TestDtypePlumbing:
    def test_state_dtypes_cover_derived_fields(self):
        """Flipping a prognostic field's storage must flip its AB2
        G-term history too (they difference against each other)."""
        cfg = PrecisionConfig.preset("all64").with_cells(
            [("u", "state")], "float32"
        )
        dtypes = cfg.state_dtypes()
        assert dtypes["u"] == np.dtype(np.float32)
        assert dtypes["gu"] == np.dtype(np.float32)
        assert dtypes["gu_prev"] == np.dtype(np.float32)
        assert dtypes["v"] == np.dtype(np.float64)

    def test_exchange_wire_dtype_none_when_f64(self):
        cfg = PrecisionConfig.preset("all64")
        assert cfg.exchange_wire_dtype("u") is None
        cfg = PrecisionConfig.preset("wire32")
        assert cfg.exchange_wire_dtype("u") == np.dtype(np.float32)

    def test_gsum_nbytes(self):
        assert PrecisionConfig.preset("all64").gsum_nbytes() == 8
        assert PrecisionConfig.preset("wire32").gsum_nbytes() == 4
        # one gsum field back at float64 keeps the shared stream at 8
        mixed = PrecisionConfig.preset("wire32").with_cells(
            [("theta", "gsum_wire")], "float64"
        )
        assert mixed.gsum_nbytes() == 8

    def test_scoreboard_args(self):
        assert PrecisionConfig.preset("all64").scoreboard_args() == {
            "itemsize": 8, "gsum_nbytes": 8,
        }
        assert PrecisionConfig.preset("wire32").scoreboard_args() == {
            "itemsize": 4, "gsum_nbytes": 4,
        }

    def test_grid_dtype_follows_state(self):
        assert PrecisionConfig.preset("all32").grid_dtype() == np.dtype(np.float32)
        assert PrecisionConfig.preset("wire32").grid_dtype() == np.dtype(np.float64)


class TestResolve:
    def test_none_is_all64(self):
        assert resolve_precision(None) == PrecisionConfig.preset("all64")

    def test_string_is_preset(self):
        assert resolve_precision("wire32") == PrecisionConfig.preset("wire32")

    def test_dict_and_config_pass_through(self):
        cfg = PrecisionConfig.preset("all32")
        assert resolve_precision(cfg) is cfg
        assert resolve_precision(cfg.to_dict()) == cfg
