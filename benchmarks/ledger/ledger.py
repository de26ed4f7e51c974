"""The full ledger run: six workloads interleaved, then one traced pass.

Protocol (see README.md): every workload is set up three times, then
repetitions run round-robin across workloads so machine drift hits all
alike (``measure.repeat``); the first repetition of each is a warm-up of
the OS file cache — its checks count, its timings do not; the rest are
reported as median, quartiles and n.  The noise gauge
(``calib.spin_ms``) is read before and after; a run whose two readings
differ by more than 10 % is marked ``noisy`` and ``compare`` will not
resolve its timings.
"""

from __future__ import annotations

import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Optional

from benchmarks.ledger import measure, proc, spec, stats
from benchmarks.ledger.workloads import WORKLOADS, Context

SCHEMA = "repro.ledger/1"
#: Set-ups per workload: the fewest that give ``setup_s`` quartiles, and
#: the fewest ``compare`` will judge a row on.
SETUPS = 3
#: Leading repetitions of each workload kept out of the timings: all the
#: set-ups run first, minutes before some workloads' first repetition.
WARMUP = 1
#: Repetitions of every workload in the self-test's tiny run.
TINY_REPS = 2


def _say(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def run_ledger(seed: int, size: str = "full",
               spans_dir: Optional[Path] = None) -> dict:
    """Measure the six workloads and return the ledger document; the
    traced pass's raw spans are kept in ``spans_dir`` when one is given."""
    workloads = list(WORKLOADS.values())
    counts = {w.name: w.spec.reps if size == "full" else TINY_REPS
              for w in workloads}
    begin = time.perf_counter()
    spin_before = stats.spin_ms()
    per_layer: dict[str, dict] = {}
    with proc.WorkDir("ledger") as work:
        ctx = Context(seed=seed, size=size, work=work)
        taken = {}
        gauge = measure.Gauge()
        for w in workloads:
            _say(f"set-up {w.name} (x{SETUPS})")
            taken[w.name] = measure.set_up(w, ctx, SETUPS, gauge)
        measure.repeat(
            workloads, ctx, taken,
            enough=lambda w, t: len(t.reps) >= counts[w.name], gauge=gauge,
            say=_say)
        for w in workloads:
            _say(f"traced pass {w.name}")
            mine = taken[w.name]
            result = w.traced(ctx, mine.state)
            per_layer[w.name] = result.rows
            if spans_dir is not None:
                spans_dir.mkdir(parents=True, exist_ok=True)
                shutil.copy(result.spans_file, spans_dir / f"{w.name}.json")
            mine.attempted += result.attempted
            mine.failed += result.failed

    end_to_end = {}
    for w in workloads:
        mine = taken[w.name]
        values = measure.samples(mine, WARMUP)
        end_to_end[w.name] = {
            "why": w.spec.why,
            "seeded": w.spec.seeded,
            "work": w.spec.work,
            "op": w.spec.op,
            "attempted": mine.attempted,
            "failed": mine.failed,
            "failed_share": mine.failed / mine.attempted,
            "digests": mine.state.reference,
            "exact": mine.reps[-1].exact,
            # Raw duration = reported duration x the slowdown beside it.
            "slowdown": {
                "setups": mine.setup_slowdowns,
                "reps": [rep.slowdown for rep in mine.reps[WARMUP:]],
            },
            "metrics": {
                m.name: {
                    "unit": m.unit, "better": m.better, "bound": m.bound,
                    **stats.summarize(values[m.name]),
                }
                for m in spec.END_TO_END
            },
        }
    return {
        "schema": SCHEMA,
        "fingerprint": stats.fingerprint(seed),
        "calibration": stats.calibration(spin_before, stats.spin_ms()),
        "protocol": {
            "size": size,
            "setups": SETUPS,
            "repetitions": counts,
            "warmup": WARMUP,
            "interleaved": "round-robin across workloads",
            "elapsed_s": time.perf_counter() - begin,
        },
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }


# ----------------------------------------------------------------------
# Rendering.
# ----------------------------------------------------------------------
def _num(value: float) -> str:
    return f"{value:.4g}"


def span_identity(rows: dict) -> Optional[dict]:
    """Layer self times + glue against the traced wall of one workload."""
    if "traced_wall_s" not in rows:
        return None
    wall = rows["traced_wall_s"]["value"]
    glue = rows["glue_s"]["value"]
    layers = sum(
        row["value"] for name, row in rows.items()
        if name.startswith("layer.") and name.endswith(".self_s")
    )
    return {"wall_s": wall, "layers_s": layers, "glue_s": glue,
            "glue_share": glue / wall, "residual_s": wall - layers - glue}


def render(ledger: dict) -> str:
    fp, cal = ledger["fingerprint"], ledger["calibration"]
    lines = [
        f"ledger {ledger['schema']}  seed {fp['seed']}  commit {fp['commit']}",
        f"machine: {fp['cpu_count']} cpu, python {fp['python']}, numpy "
        f"{fp['numpy']}, scipy {fp['scipy']}, {fp['platform']}",
        f"calib.spin_ms: {cal['spin_ms_before']:.1f} before, "
        f"{cal['spin_ms_after']:.1f} after (drift {cal['drift_share']:.1%})"
        + ("  ** NOISY: timings unresolved **" if cal["noisy"] else ""),
        "",
        "End to end (median [q1, q3] n; lower is better unless noted; "
        "durations corrected for host speed: raw = value x slowdown)",
    ]
    for name, entry in ledger["end_to_end"].items():
        slowdown = statistics.median(entry["slowdown"]["reps"])
        lines.append(
            f"  {name}: failed_share {entry['failed_share']:.4g} "
            f"({entry['failed']}/{entry['attempted']}), "
            f"median slowdown {slowdown:.3f}"
            + ("" if entry["seeded"] else "  [fixed input: no CLI seed flag]"))
        for metric, s in entry["metrics"].items():
            note = " (higher is better)" if s["better"] == "higher" else ""
            lines.append(
                f"    {metric:<12} {_num(s['median']):>10} {s['unit']:<4} "
                f"[{_num(s['q1'])}, {_num(s['q3'])}] n={s['n']} "
                f"bound {s['bound']:.0%}{note}")
    for name, rows in ledger["per_layer"].items():
        lines += ["", f"Per layer, traced pass of {name}"]
        identity = span_identity(rows)
        if identity:
            lines.append(
                f"    spans: layers {identity['layers_s']:.3f}s + glue "
                f"{identity['glue_s']:.3f}s = wall {identity['wall_s']:.3f}s "
                f"(glue {identity['glue_share']:.1%})")
        units = {m.name: m.unit for m in spec.PER_LAYER}
        for metric in spec.PER_LAYER_NAMES:
            row = rows.get(metric)
            if row is None or (
                    metric.startswith("layer.") and row["value"] == 0):
                continue  # a layer this workload never enters
            if row["value"] is None:
                lines.append(f"    {metric:<40} null ({row['reason']})")
                continue
            spread = (
                f" [{_num(row['q1'])}, {_num(row['q3'])}] n={row['n']}"
                if row.get("n", 1) > 1 else "")
            base = f"  base {row['base']}" if "base" in row else ""
            lines.append(
                f"    {metric:<40} {_num(row['value']):>10} "
                f"{units[metric]}{spread}{base}")
    return "\n".join(lines)
