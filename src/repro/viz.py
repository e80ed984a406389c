"""Terminal visualization helpers (ASCII maps and profiles).

The paper's Fig. 9 shows ocean currents and zonal winds; the examples
render the corresponding fields as ASCII maps so the reproduction stays
dependency-free.  Kept deliberately small: a density map, a signed
anomaly map, and a vertical profile bar chart.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

#: Default density ramp (light to dark).
RAMP = " .:-=+*#%@"
#: Signed ramp: westward/negative on the left, eastward/positive right.
SIGNED_RAMP = "<~- +o*#"


def ascii_map(
    field: np.ndarray,
    title: str = "",
    ramp: str = RAMP,
) -> str:
    """Render a 2-D field as an ASCII density map.

    Rows are latitude (northernmost printed first), columns longitude.
    Constant fields render as all-lightest.
    """
    a = np.asarray(field, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"need a 2-D field, got shape {a.shape}")
    lo, hi = float(np.nanmin(a)), float(np.nanmax(a))
    span = hi - lo
    lines = []
    if title:
        lines.append(f"{title}  [{lo:.3g} .. {hi:.3g}]")
    for row in a[::-1]:
        if span == 0:
            lines.append(ramp[0] * len(row))
            continue
        idx = np.clip(((row - lo) / span * (len(ramp) - 1)), 0, len(ramp) - 1)
        lines.append("".join(ramp[int(i)] for i in idx))
    return "\n".join(lines)


def anomaly_map(field: np.ndarray, title: str = "") -> str:
    """Render a signed field symmetric about zero."""
    a = np.asarray(field, dtype=float)
    scale = float(np.nanmax(np.abs(a))) or 1.0
    return ascii_map((a / scale + 1.0) / 2.0, title=title, ramp=SIGNED_RAMP)


def render_timeline(
    timeline: Sequence[tuple[str, float, float]],
    width: int = 60,
    title: str = "",
) -> str:
    """Render a runtime event timeline as an ASCII Gantt strip.

    ``timeline`` is the :class:`repro.parallel.runtime.LockstepRuntime`
    event log: (kind, t_start, t_end) triples on the critical-path
    clock.  Compute renders as ``#``, exchanges as ``=``, global sums as
    ``|`` and aggregated solver phases as ``$`` (each event gets at
    least one column).
    """
    if not timeline:
        return "(empty timeline)"
    t_max = max(t1 for _, _, t1 in timeline) or 1.0
    glyph = {"compute": "#", "exchange": "=", "gsum": "|", "solver": "$"}
    lines = [title] if title else []
    lines.append(f"0 {'-' * width} {t_max * 1e3:.2f} ms")
    for kind, t0, t1 in timeline:
        a = int(t0 / t_max * width)
        b = max(int(t1 / t_max * width), a + 1)
        g = glyph.get(kind.split(":")[0], "?")
        lines.append(" " * (2 + a) + g * (b - a) + f"  {kind} ({(t1 - t0) * 1e3:.3f} ms)")
    return "\n".join(lines)


def profile_bars(
    values: Sequence[float],
    labels: Optional[Sequence[str]] = None,
    title: str = "",
    width: int = 40,
) -> str:
    """Horizontal bar chart of a 1-D profile (e.g. w vs depth)."""
    vals = np.asarray(list(values), dtype=float)
    scale = float(np.abs(vals).max()) or 1.0
    lines = [title] if title else []
    labels = list(labels) if labels is not None else [f"{i}" for i in range(len(vals))]
    lab_w = max(len(str(lab)) for lab in labels)
    for lab, v in zip(labels, vals):
        n = int(abs(v) / scale * width)
        bar = ("+" if v >= 0 else "-") * n
        lines.append(f"{str(lab).rjust(lab_w)} {v:+10.4g} {bar}")
    return "\n".join(lines)
