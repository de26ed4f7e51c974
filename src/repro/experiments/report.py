"""Plain-text rendering of figure data.

The benchmarks print these tables; EXPERIMENTS.md records them next to the
paper's reported numbers.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional, Sequence

from repro.experiments.figures import FigureSeries


def format_cell(
    value: float, spec: str = ".4f", missing: str = "-", unit: str = ""
) -> str:
    """One table cell: the number every report of the repo prints.

    A NaN — a censored measurement, a model that never decided, a policy
    with no latencies — is the ``missing`` marker, never the literal
    ``nan`` a bare format spec leaks; an infinity is a bare ``inf`` /
    ``-inf``, not padded to the spec's width as if it had a magnitude;
    anything else is ``format(value, spec)``.  ``unit`` follows a value
    that is there (``"38 ms"``), not the marker.  Width and alignment
    are the caller's column's business: pad the returned string.
    """
    if value != value:  # NaN
        return missing
    if math.isinf(value):
        return ("inf" if value > 0 else "-inf") + unit
    return format(value, spec) + unit


def _format(value: float) -> str:
    """A figure-table cell, ten wide: four decimals, fewer as the
    magnitude grows (the NaN and infinity sentinels are six wide)."""
    if abs(value) >= 10000:
        spec = "10.3g"
    elif abs(value) >= 100:
        spec = "10.1f"
    else:
        spec = "10.4f"
    return format_cell(value, spec).rjust(6)


def render_series(result: FigureSeries, max_rows: Optional[int] = None) -> str:
    """Render a :class:`FigureSeries` as an aligned text table."""
    names = list(result.series)
    header = f"Figure {result.figure}  ({result.x_label})"
    lines = [header, "-" * len(header)]
    column_header = "  ".join(
        [f"{result.x_label[:10]:>10}"] + [f"{name[:14]:>14}" for name in names]
    )
    lines.append(column_header)
    rows: Sequence[int] = range(len(result.x))
    if max_rows is not None and len(result.x) > max_rows:
        step = max(1, len(result.x) // max_rows)
        subsampled = list(range(0, len(result.x), step))
        # The stride may step over the final index; the largest x value
        # (e.g. the longest timeout) must always appear in the table.
        if subsampled[-1] != len(result.x) - 1:
            subsampled.append(len(result.x) - 1)
        rows = subsampled
    for i in rows:
        cells = [f"{result.x[i]:>10.4g}"]
        for name in names:
            cells.append(f"{_format(result.series[name][i]):>14}")
        lines.append("  ".join(cells))
    if result.notes:
        lines.append(f"notes: {result.notes}")
    return "\n".join(lines)


def render_comparison(
    title: str,
    rows: Sequence[tuple[str, float, float]],
) -> str:
    """Render (label, paper value, measured value) comparison rows.

    Values route through :func:`_format`, so a NaN (e.g. a censored
    measurement) renders as ``-`` rather than the literal ``nan``.
    """
    lines = [title, "-" * len(title)]
    lines.append(f"{'quantity':<44}{'paper':>12}{'this repo':>12}")
    for label, paper_value, measured in rows:
        lines.append(
            f"{label:<44}{_format(paper_value):>12}{_format(measured):>12}"
        )
    return "\n".join(lines)
