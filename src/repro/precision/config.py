"""Per-field, per-site precision assignment.

The paper's PFPP analysis (eqs. 14-15) shows the GCM pinned against the
interconnect ceiling, and every byte the seed puts on the wire is
float64.  A :class:`PrecisionConfig` makes precision a first-class,
searchable property of a run: each prognostic field (the paper's u, v,
w, T, S, eta, p — our ``u v w theta tracer ps phy``) is assigned
float32 or float64 at each of four *sites*:

``state``
    the tile-local storage of the field (and its derived G-term
    arrays),
``exchange_wire``
    the halo-exchange payload — values cross the wire at this
    precision and the byte counts priced by every backend tier shrink
    with it,
``gsum_wire``
    the collective/global-sum payload (physically one shared scalar
    stream, so the site flips as a whole),
``cg_internals``
    the working precision of the conjugate-gradient solver (one solver,
    so this site too flips as a whole).

Configs round-trip through plain JSON-ready dicts
(:meth:`PrecisionConfig.to_dict` / :meth:`PrecisionConfig.from_dict`),
which is how the search driver ships candidates to ensemble-service
workers and how a tuned assignment is persisted for ``repro pfpp
--precision tuned``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

#: The prognostic fields carrying a precision assignment (paper names:
#: u, v, w, T, S, eta, p).
PRECISION_FIELDS: Tuple[str, ...] = ("u", "v", "w", "theta", "tracer", "ps", "phy")

#: The assignment sites (see module docstring).
SITES: Tuple[str, ...] = ("state", "exchange_wire", "gsum_wire", "cg_internals")

#: Sites that are physically global (one wire stream / one solver), so
#: the search flips them as whole groups rather than per field.
GLOBAL_SITES: Tuple[str, ...] = ("gsum_wire", "cg_internals")

_DTYPES = {"float32": np.float32, "float64": np.float64}

#: State arrays derived from each prognostic field (AB2 time levels);
#: they storage-follow their base field.
_DERIVED_OF = {
    "u": ("gu", "gu_prev"),
    "v": ("gv", "gv_prev"),
    "w": ("gw", "gw_prev"),
    "theta": ("gtheta", "gtheta_prev"),
    "tracer": ("gtracer", "gtracer_prev"),
    "ps": (),
    "phy": (),
}


def _validate_name(value: str, kind: str, allowed: Sequence[str]) -> str:
    if value not in allowed:
        raise ValueError(f"unknown {kind} {value!r}; have {tuple(allowed)}")
    return value


@dataclass(frozen=True)
class PrecisionConfig:
    """A {float32, float64} assignment per field x site.

    ``assignment[field][site]`` is ``"float32"`` or ``"float64"``.
    Instances are immutable; :meth:`with_cells` derives modified copies
    (the search's working operation).
    """

    name: str = "all64"
    assignment: Mapping[str, Mapping[str, str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        full: Dict[str, Dict[str, str]] = {}
        for f in PRECISION_FIELDS:
            row = dict(self.assignment.get(f, {}))
            for site in row:
                _validate_name(site, "site", SITES)
            for prec in row.values():
                _validate_name(prec, "precision", tuple(_DTYPES))
            full[f] = {site: row.get(site, "float64") for site in SITES}
        extra = set(self.assignment) - set(PRECISION_FIELDS)
        if extra:
            raise ValueError(
                f"unknown fields {sorted(extra)}; have {PRECISION_FIELDS}"
            )
        object.__setattr__(self, "assignment", full)

    # ---- construction ----------------------------------------------------

    @classmethod
    def uniform(cls, precision: str) -> "PrecisionConfig":
        """Every field at every site at ``precision``."""
        _validate_name(precision, "precision", tuple(_DTYPES))
        return cls(
            name="all64" if precision == "float64" else "all32",
            assignment={
                f: {s: precision for s in SITES} for f in PRECISION_FIELDS
            },
        )

    @classmethod
    def preset(cls, name: str) -> "PrecisionConfig":
        """One of the named presets: ``all64``, ``all32``, ``wire32``."""
        if name == "all64":
            return cls.uniform("float64")
        if name == "all32":
            return cls.uniform("float32")
        if name == "wire32":
            return cls(
                name="wire32",
                assignment={
                    f: {
                        "state": "float64",
                        "exchange_wire": "float32",
                        "gsum_wire": "float32",
                        "cg_internals": "float64",
                    }
                    for f in PRECISION_FIELDS
                },
            )
        raise ValueError(
            f"unknown precision preset {name!r}; have ('all64', 'all32', 'wire32')"
        )

    def with_cells(
        self, cells: Iterable[Tuple[str, str]], precision: str, name: Optional[str] = None
    ) -> "PrecisionConfig":
        """A copy with the given ``(field, site)`` cells reassigned."""
        _validate_name(precision, "precision", tuple(_DTYPES))
        assignment = {f: dict(row) for f, row in self.assignment.items()}
        for f, site in cells:
            _validate_name(f, "field", PRECISION_FIELDS)
            _validate_name(site, "site", SITES)
            assignment[f][site] = precision
        return PrecisionConfig(name=name or self.name, assignment=assignment)

    # ---- JSON round trip ---------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-serializable)."""
        return {
            "name": self.name,
            "assignment": {f: dict(row) for f, row in self.assignment.items()},
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "PrecisionConfig":
        return cls(name=d.get("name", "custom"), assignment=d.get("assignment", {}))

    # ---- queries -----------------------------------------------------------

    def precision(self, fieldname: str, site: str) -> str:
        """The assigned precision name of one ``(field, site)`` cell."""
        _validate_name(fieldname, "field", PRECISION_FIELDS)
        _validate_name(site, "site", SITES)
        return self.assignment[fieldname][site]

    def dtype(self, fieldname: str, site: str) -> np.dtype:
        """The assigned dtype of one ``(field, site)`` cell."""
        return np.dtype(_DTYPES[self.precision(fieldname, site)])

    # ---- model-facing helpers ----------------------------------------------

    def state_dtypes(self) -> Dict[str, np.dtype]:
        """Allocation dtype for every model state array (derived AB2
        G-term arrays follow their base prognostic field)."""
        out: Dict[str, np.dtype] = {}
        for f in PRECISION_FIELDS:
            dt = self.dtype(f, "state")
            out[f] = dt
            for derived in _DERIVED_OF[f]:
                out[derived] = dt
        return out

    def grid_dtype(self) -> np.dtype:
        """Working dtype of the grid metric arrays: float32 only when
        *every* prognostic field stores at float32 (so metrics never
        silently promote a float32 state back to float64)."""
        if all(
            self.precision(f, "state") == "float32" for f in PRECISION_FIELDS
        ):
            return np.dtype(np.float32)
        return np.dtype(np.float64)

    def exchange_wire_dtype(self, fieldname: str) -> Optional[np.dtype]:
        """Halo wire dtype of one field; None means "no cast" (f64)."""
        dt = self.dtype(fieldname, "exchange_wire")
        return dt if dt == np.float32 else None

    def exchange_wire_dtypes(
        self, names: Sequence[str]
    ) -> Optional[list[Optional[np.dtype]]]:
        """Per-field halo wire dtypes, or None when nothing casts."""
        dts = [self.exchange_wire_dtype(n) for n in names]
        return dts if any(dt is not None for dt in dts) else None

    def exchange_itemsizes(self, names: Sequence[str]) -> list[int]:
        """Per-field wire bytes per element for a multi-field exchange."""
        return [int(self.dtype(n, "exchange_wire").itemsize) for n in names]

    def ds_itemsize(self) -> int:
        """Wire bytes per element of the DS solver's halo exchanges (the
        solver wires the surface-pressure system's 2-D fields)."""
        return int(self.dtype("ps", "exchange_wire").itemsize)

    def gsum_nbytes(self) -> int:
        """Wire bytes of one global-sum payload element (float32 only
        when every field's ``gsum_wire`` is float32: one shared stream)."""
        if all(self.precision(f, "gsum_wire") == "float32" for f in PRECISION_FIELDS):
            return 4
        return 8

    def cg_dtype(self) -> np.dtype:
        """Working dtype of the CG solver (one solver: float32 only when
        every field's ``cg_internals`` is float32)."""
        if all(
            self.precision(f, "cg_internals") == "float32"
            for f in PRECISION_FIELDS
        ):
            return np.dtype(np.float32)
        return np.dtype(np.float64)

    def scoreboard_args(self) -> Dict[str, int]:
        """The (itemsize, gsum nbytes) a PFPP scoreboard row should
        price: exchanges shrink to 4 B only when every prognostic
        field's halo payload is float32 (a scoreboard exchange moves
        all of them)."""
        all32_wire = all(
            self.precision(f, "exchange_wire") == "float32"
            for f in PRECISION_FIELDS
        )
        return {
            "itemsize": 4 if all32_wire else 8,
            "gsum_nbytes": self.gsum_nbytes(),
        }

    def describe(self) -> str:
        """One line: counts of float32 cells per site."""
        parts = []
        for site in SITES:
            n32 = sum(
                1 for f in PRECISION_FIELDS if self.assignment[f][site] == "float32"
            )
            parts.append(f"{site}={n32}/{len(PRECISION_FIELDS)}f32")
        return f"{self.name}: " + " ".join(parts)


def resolve_precision(spec) -> PrecisionConfig:
    """Coerce ``None`` / preset name / dict / config to a config."""
    if spec is None:
        return PrecisionConfig.preset("all64")
    if isinstance(spec, PrecisionConfig):
        return spec
    if isinstance(spec, str):
        return PrecisionConfig.preset(spec)
    if isinstance(spec, Mapping):
        return PrecisionConfig.from_dict(spec)
    raise TypeError(
        f"precision must be None, a preset name, a dict or a "
        f"PrecisionConfig, got {type(spec).__name__}"
    )
