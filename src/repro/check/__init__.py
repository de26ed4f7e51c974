"""Conformance tooling: runtime invariants and differential validation.

The repo has two independent execution paths for the same protocols —
the lockstep GIRAF runner (:mod:`repro.giraf`) and the event-driven
round-synchronization stack (:mod:`repro.sim` + :mod:`repro.sync`) —
plus the closed-form analysis of equations (1)-(10).  This package is
the correctness tooling that cross-checks them:

- :mod:`repro.check.invariants` — pluggable runtime checkers
  (Agreement, Validity, Integrity, leader stability after GSR, and the
  Theorem 10 decision bound for Algorithm 2), attachable as observers
  to both :class:`~repro.giraf.runner.LockstepRunner` and
  :class:`~repro.sync.round_sync.SyncRun`;
- :mod:`repro.check.differential` — drive one (network profile,
  :class:`~repro.faults.plan.FaultPlan`, seed) scenario through both
  stacks and diff the observables within stated tolerances, and
  cross-check the Monte-Carlo estimators against the closed forms;
- :mod:`repro.check.mutation` — deliberately broken algorithm variants
  proving the checkers can fail (a harness that cannot fire is no
  harness at all).
"""

from repro.check.invariants import (
    Agreement,
    Integrity,
    Invariant,
    InvariantSuite,
    LeaderStability,
    Validity,
    Violation,
    WlmDecisionBound,
    default_suite,
)
from repro.check.differential import (
    ConformanceReport,
    DiffRow,
    DifferentialResult,
    batched_differential_run,
    conformance_report,
    differential_run,
    montecarlo_vs_equations,
    run_conformance,
)
from repro.check.mutation import BrokenAgreementWlm, agreement_violation_run

__all__ = [
    "Agreement",
    "Integrity",
    "Invariant",
    "InvariantSuite",
    "LeaderStability",
    "Validity",
    "Violation",
    "WlmDecisionBound",
    "default_suite",
    "ConformanceReport",
    "DiffRow",
    "DifferentialResult",
    "batched_differential_run",
    "conformance_report",
    "differential_run",
    "montecarlo_vs_equations",
    "run_conformance",
    "BrokenAgreementWlm",
    "agreement_violation_run",
]
