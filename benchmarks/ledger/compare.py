"""``python -m benchmarks.ledger compare A.json B.json``.

One row per (end-to-end metric, workload): both medians, both sides'
quartiles, and a verdict against the metric's recorded bound —

- **unresolved**: either side has fewer than three samples (no spread
  to judge by), or either ledger is marked ``noisy``, or the run-to-run
  spread (the wider of the two inter-quartile distances, as a share of
  A's median) exceeds the bound while the two sides' runs overlap —
  never reported as unchanged;
- **regressed**: B's median is worse than A's by more than the bound,
  and the spread is within the bound or every run of B reads worse than
  every run of A;
- **improved**: every run of B reads better than every run of A, and
  B's median is better by more than the spread;
- **unchanged**: otherwise.

Exit status is non-zero only for a regressed row or a higher
``failed_share``: CI fails beyond the recorded spread, not inside it.
"""

from __future__ import annotations

import json
from pathlib import Path

from benchmarks.ledger import spec

#: peak_rss_mb is the one end-to-end metric machine noise cannot move.
_NOISE_FREE = ("peak_rss_mb",)
#: Fewest samples per side a row is judged on: below it the quartile
#: distance is zero or one gap, and any shift would read as resolved.
MIN_SAMPLES = 3


def _worse_share(a: dict, b: dict) -> float:
    """How much worse B's median is, as a share of A's (negative: better)."""
    delta = (b["median"] - a["median"]) / abs(a["median"])
    return delta if a["better"] == "lower" else -delta


def _separated(a: dict, b: dict) -> int:
    """+1 when every run of B is worse than every run of A, -1 when every
    run is better, 0 when the two sides overlap."""
    low_a, high_a = min(a["samples"]), max(a["samples"])
    low_b, high_b = min(b["samples"]), max(b["samples"])
    if a["better"] == "higher":
        low_a, high_a, low_b, high_b = -high_a, -low_a, -high_b, -low_b
    if low_b > high_a:
        return 1
    if high_b < low_a:
        return -1
    return 0


def verdict(metric: str, a: dict, b: dict, noisy: bool) -> str:
    if noisy and metric not in _NOISE_FREE:
        return "unresolved"
    if min(a["n"], b["n"]) < MIN_SAMPLES:
        return "unresolved"
    bound = a["bound"]
    worse = _worse_share(a, b)
    spread = max(a["q3"] - a["q1"], b["q3"] - b["q1"]) / abs(a["median"])
    apart = _separated(a, b)
    if worse > bound and (spread <= bound or apart > 0):
        return "regressed"
    if apart < 0 and -worse > spread:
        return "improved"
    if spread > bound:
        return "unresolved"
    return "unchanged"


def _q(summary: dict) -> str:
    return f"[{summary['q1']:.4g}, {summary['q3']:.4g}]"


def compare(a: dict, b: dict) -> tuple[str, int]:
    """The comparison table and the process exit status."""
    noisy = a["calibration"]["noisy"] or b["calibration"]["noisy"]
    lines = [
        f"A: commit {a['fingerprint']['commit']} seed {a['fingerprint']['seed']}"
        f"   B: commit {b['fingerprint']['commit']} seed {b['fingerprint']['seed']}"
    ]
    if noisy:
        lines.append("a ledger is marked noisy: timing rows are unresolved")
    lines.append(
        f"{'workload':<14}{'metric':<13}{'A median':>11} {'A quartiles':<22}"
        f"{'B median':>11} {'B quartiles':<22}{'change':>8}  verdict")
    status = 0
    for name in spec.WORKLOAD_NAMES:
        wa, wb = a["end_to_end"][name], b["end_to_end"][name]
        for metric in wa["metrics"]:
            ma, mb = wa["metrics"][metric], wb["metrics"][metric]
            word = verdict(metric, ma, mb, noisy)
            status |= word == "regressed"
            lines.append(
                f"{name:<14}{metric:<13}{ma['median']:>11.4g} {_q(ma):<22}"
                f"{mb['median']:>11.4g} {_q(mb):<22}"
                f"{_worse_share(ma, mb):>+8.1%}  {word}")
        higher = wb["failed_share"] > wa["failed_share"]
        status |= higher
        lines.append(
            f"{name:<14}{'failed_share':<13}{wa['failed_share']:>11.4g} "
            f"{'':<22}{wb['failed_share']:>11.4g} {'':<22}{'':>8}  "
            + ("regressed" if higher else "unchanged"))
    lines += _exact_rows(a, b)
    return "\n".join(lines), int(status)


def _exact_rows(a: dict, b: dict) -> list[str]:
    """Counts made by the program must repeat exactly on one commit."""
    moved = []
    for name, rows in a["per_layer"].items():
        other = b["per_layer"][name]
        for metric in spec.EXACT_ROWS:
            if metric in rows and metric in other:
                if rows[metric]["value"] != other[metric]["value"]:
                    moved.append(
                        f"  {name} {metric}: {rows[metric]['value']} -> "
                        f"{other[metric]['value']}")
    if not moved:
        return ["exact-count rows: all repeat exactly"]
    return ["exact-count rows that moved:"] + moved


def main(path_a: Path, path_b: Path) -> int:
    text, status = compare(
        json.loads(path_a.read_text()), json.loads(path_b.read_text()))
    print(text)
    return status
