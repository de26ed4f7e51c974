"""The benchmark ledger: six workloads, end-to-end and per-layer metrics.

Every performance or simplicity claim in this repository is judged by
the numbers this package prints.  ``README.md`` beside this file is the
manual; ``spec.py`` is the single table of workloads and metrics that
``BENCHMARK.json`` at the repository root is generated from.

Two entry points share one set of workloads:

- ``python3 benchmarks/ledger/run.py --workload W --seed S --seconds T
  --trace 0|1`` — one of the four workloads ``BENCHMARK.json`` lists, one
  JSON line (the driver's contract);
- ``PYTHONPATH=src python -m benchmarks.ledger`` — all six workloads
  interleaved, then one traced pass, written as one ledger file that
  ``python -m benchmarks.ledger compare A.json B.json`` can diff.

The parent process here never imports :mod:`repro`: every repetition is
a fresh child process (the real CLI, or ``benchmarks.ledger.child``), so
users' import and cold-cache costs are inside the measurement.
"""
