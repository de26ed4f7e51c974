"""``PYTHONPATH=src python -m benchmarks.ledger`` — the ledger's command line.

::

    python -m benchmarks.ledger [--seed 11] [--out ledger.json]
    python -m benchmarks.ledger compare A.json B.json
    python -m benchmarks.ledger spec            # prints BENCHMARK.json
    python -m benchmarks.ledger --selftest

With no subcommand it measures the six workloads untraced, interleaved,
then makes one traced pass, prints every metric by name with its unit,
and writes the ledger document to ``--out`` when given (the traced
pass's raw spans go beside it, in ``<out>.spans/``).  Nothing is
written into the repository otherwise; scratch lives in ``.ledger_work/``
(ignored, removed at exit).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from benchmarks.ledger import compare, ledger, proc, selftest, spec


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger")
    parser.add_argument("--selftest", action="store_true",
                        help="tiny run of everything plus injected faults")
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--out", type=Path, default=None,
                        help="write the ledger document here")
    commands = parser.add_subparsers(dest="command")
    diff = commands.add_parser("compare", help="diff two ledger documents")
    diff.add_argument("a", type=Path)
    diff.add_argument("b", type=Path)
    commands.add_parser("spec", help="print BENCHMARK.json")
    args = parser.parse_args(argv)

    if args.command == "compare":
        return compare.main(args.a, args.b)
    if args.command == "spec":
        print(json.dumps(spec.benchmark_json(), indent=2))
        return 0
    if args.selftest:
        return selftest.main(args.seed)

    proc.require_program()
    proc.exit_on_sigterm()
    spans_dir = args.out.with_suffix(".spans") if args.out else None
    doc = ledger.run_ledger(args.seed, spans_dir=spans_dir)
    print(ledger.render(doc))
    if args.out is not None:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return int(any(e["failed"] for e in doc["end_to_end"].values()))


if __name__ == "__main__":
    sys.exit(main())
