"""Plain-text rendering of a run's telemetry, figure-table style.

``python -m repro.experiments --metrics DIR`` drops four artifacts in
``DIR``; this module renders the instrument snapshot (``metrics.json``)
as the aligned text table written to ``metrics.txt``, and doubles as a
standalone viewer::

    python -m repro.experiments.obs_report results/metrics

The layout mirrors :mod:`repro.experiments.report`: a titled section per
instrument family, counters and gauges as name/value rows, histograms as
one row of count/mean/percentile columns each.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.experiments.report import format_cell
from repro.obs.recorder import read_jsonl, read_manifest


def _value(value: float) -> str:
    """A gauge or histogram statistic: whole numbers bare, large ones to
    one decimal, the rest to four."""
    if float(value).is_integer():
        return format_cell(int(value), "d")
    return format_cell(value, ".1f" if abs(value) >= 100 else ".4f")


def render_metrics(snapshot: dict) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` as an aligned table."""
    lines: list[str] = []

    def section(title: str) -> None:
        if lines:
            lines.append("")
        lines.append(title)
        lines.append("-" * len(title))

    counters = snapshot.get("counters", {})
    if counters:
        section("Counters")
        width = max(len(name) for name in counters)
        for name in sorted(counters):
            lines.append(f"{name:<{width}}  {counters[name]:>12}")

    gauges = snapshot.get("gauges", {})
    if gauges:
        section("Gauges")
        width = max(len(name) for name in gauges)
        for name in sorted(gauges):
            lines.append(
                f"{name:<{width}}  {_value(gauges[name]):>12}"
            )

    histograms = snapshot.get("histograms", {})
    if histograms:
        section("Histograms")
        width = max(len(name) for name in histograms)
        header = (
            f"{'':<{width}}  {'count':>8}  {'mean':>10}  {'p50':>10}  "
            f"{'p90':>10}  {'p99':>10}  {'max':>10}"
        )
        lines.append(header)
        for name in sorted(histograms):
            summary = histograms[name]
            if not summary.get("count"):
                lines.append(f"{name:<{width}}  {0:>8}")
                continue
            lines.append(
                f"{name:<{width}}  {summary['count']:>8}  "
                f"{_value(summary['mean']):>10}  "
                f"{_value(summary['p50']):>10}  "
                f"{_value(summary['p90']):>10}  "
                f"{_value(summary['p99']):>10}  "
                f"{_value(summary['max']):>10}"
            )

    if not lines:
        return "(no metrics recorded)"
    return "\n".join(lines)


def render_metrics_dir(metrics_dir: Path | str) -> str:
    """Render a ``--metrics`` output directory: manifest header, the
    instrument table, and a one-line timeline digest."""
    metrics_dir = Path(metrics_dir)
    parts: list[str] = []
    manifest_path = metrics_dir / "manifest.json"
    if manifest_path.exists():
        manifest = read_manifest(manifest_path)
        title = (
            f"Run manifest  (schema {manifest.get('schema', '?')}, "
            f"repro {manifest.get('package_version', '?')})"
        )
        parts.append(title)
        parts.append("-" * len(title))
        for key in sorted(manifest):
            if key in ("schema", "package_version"):
                continue
            parts.append(f"{key}: {manifest[key]}")
        parts.append("")
    metrics_path = metrics_dir / "metrics.json"
    if metrics_path.exists():
        snapshot = json.loads(metrics_path.read_text())
        parts.append(render_metrics(snapshot))
    timeline_path = metrics_dir / "timeline.jsonl"
    if timeline_path.exists():
        events = read_jsonl(timeline_path)
        kinds = sorted({event.get("kind", "?") for event in events})
        parts.append("")
        parts.append(
            f"timeline: {len(events)} events ({', '.join(kinds)})"
            if events
            else "timeline: empty"
        )
    if not parts:
        return f"(no metrics artifacts in {metrics_dir})"
    return "\n".join(parts)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 1:
        print("usage: python -m repro.experiments.obs_report <metrics-dir>")
        return 2
    print(render_metrics_dir(argv[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
