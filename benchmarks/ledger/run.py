"""One workload, one JSON line: the driver's entry point.

::

    python3 benchmarks/ledger/run.py --workload sweep_warm --seed 11 \\
        --seconds 22 --trace 0

The workloads are the four ``BENCHMARK.json`` lists; ``phases_full`` and
``served_mixed`` are measured by the full ledger run only (``spec``).

``--trace 0`` sets the workload up (three times when that is cheap; the
median is ``setup_s``), repeats it — a fresh child process each time —
until ``--seconds`` of repetition time have passed and at least twice
(five to ten times in the contract's 22 s), and prints every end-to-end
metric as the median of its repetitions: the estimator of the full
ledger run (``measure.samples``), without its warm-up round — here the
set-up directly before is the warm-up.
``--trace 1`` sets up once, runs the section untraced and traced in one
fresh child each, and prints every per-layer row a driver workload can
measure.  The driver's result line has no null: a row whose home is
another workload, whose span this workload never enters, or that this
machine cannot measure (``null`` + reason in the full run) reads 0 here.

The last line of standard output is ``{"correct", "attempted",
"failed", "metrics"}``.  Exit status is non-zero, with no result line,
when the program under test is missing or a child process breaks.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# Run as a script: make the checkout root importable instead of this
# directory, so the package's modules never shadow top-level names.
sys.path[0] = str(Path(__file__).resolve().parents[2])

from benchmarks.ledger import measure, proc, spec, stats  # noqa: E402
from benchmarks.ledger.workloads import WORKLOADS, Context  # noqa: E402

#: A run repeats its workload at least this often, so that "identical
#: across repetitions" is checked inside every run.
MIN_REPS = 2


def untraced(workload, ctx: Context, seconds: float) -> tuple[int, int, dict]:
    gauge = measure.Gauge()
    taken = measure.set_up(workload, ctx, workload.setups, gauge)
    measure.repeat(
        [workload], ctx, {workload.name: taken},
        enough=lambda w, t: len(t.reps) >= MIN_REPS and t.rep_seconds >= seconds,
        gauge=gauge)
    values = measure.samples(taken, warmup=0)
    return taken.attempted, taken.failed, {
        m.name: stats.summarize(values[m.name])["median"]
        for m in spec.END_TO_END
    }


def traced(workload, ctx: Context) -> tuple[int, int, dict]:
    taken = measure.set_up(workload, ctx, 1, measure.Gauge())
    result = workload.traced(ctx, taken.state)
    values = {}
    for m in spec.DRIVER_PER_LAYER:
        value = result.rows.get(m.name, {}).get("value")
        values[m.name] = 0.0 if value is None else value
    return (taken.attempted + result.attempted,
            taken.failed + result.failed, values)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks/ledger/run.py")
    parser.add_argument("--workload", required=True, choices=spec.DRIVER_WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    proc.require_program()
    proc.exit_on_sigterm()
    workload = WORKLOADS[args.workload]
    metrics = spec.DRIVER_PER_LAYER if args.trace else spec.END_TO_END
    with proc.WorkDir(args.workload) as work:
        ctx = Context(seed=args.seed, size="full", work=work)
        if args.trace:
            attempted, failed, values = traced(workload, ctx)
        else:
            attempted, failed, values = untraced(workload, ctx, args.seconds)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m.name: {"value": values[m.name], "unit": m.unit} for m in metrics
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
