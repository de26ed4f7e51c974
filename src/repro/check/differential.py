"""Differential validation: one scenario, two stacks, diffed observables.

The repo computes every headline quantity twice — once on the idealized
synchronized-window path (sampled latency trace, ``timely_matrices``,
batch model predicates) and once through the event-driven protocol stack
(:class:`~repro.sync.round_sync.SyncRun` over the simulated transport).
The figures lean on the idealization; Section 5.1's protocol is what
justifies it.  This module makes that justification executable: drive
one scenario row (:class:`~repro.sync.heartbeat.ProbeScenario`: network
profile, ping table, ``FaultPlan``, seed) through both stacks and diff
what comes out —

- the measured timely fraction ``p``,
- ``P_M`` for each timing model (ES, AFM, ◊LM, ◊WLM),
- the measured decision rounds ``D_WLM``,
- the round-synchronization error (event path against the idealization's
  implicit zero),

each within a stated tolerance, while :mod:`repro.check.invariants`
checkers ride along on consensus runs through both stacks.  A separate
cross-check pits the Monte-Carlo estimators against the Section 4
closed forms on a grid of ``p`` values.  The sweep itself is data:
:data:`GRID`, one ``(check, profile, fault)`` row per scenario.

Tolerances are deliberately loose statistical bounds, not equality: the
two stacks share a latency trace seed but cut rounds differently (local
timers, jumps, shortened joins), so their matrices agree in distribution,
not bit-for-bit.  The bands follow the precedents of
``tests/integration/test_sync_vs_matrix.py``, widened where fault plans
add variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from repro.analysis import equations
from repro.analysis.montecarlo import estimate_p_model
from repro.check.invariants import Violation, default_suite
from repro.check.mutation import agreement_violation_run
from repro.core.wlm import WlmConsensus
from repro.experiments.decision import decision_stats_from_vector
from repro.experiments.measurement import (
    model_satisfaction,
    sample_latency_trace,
    satisfaction_vector,
    timely_matrices,
)
from repro.experiments.report import format_cell
from repro.faults.adversary import StabilityWindowAdversary
from repro.faults.plan import Crash, FaultPlan, LossBurst, Partition, SlowNode
from repro.giraf.oracle import FixedLeaderOracle
from repro.net.base import LatencyModel
from repro.net.granular import granular_wan_profile
from repro.net.hetero import uniform_wan_profile
from repro.net.lan import lan_profile
from repro.net.planetlab import planetlab_profile
from repro.obs.registry import MetricsRegistry
from repro.sim.rng import derive_seed
from repro.sim.transport import Transport
from repro.sync.batch import METRIC_FACETS, RESULT_FIELDS, RUN_FACETS, twin_runs
from repro.sync.heartbeat import ProbeScenario
from repro.sync.round_sync import SyncRun

#: A network profile's factory: takes the ``seed`` keyword.
_Factory = Callable[..., LatencyModel]

#: The models whose ``P_M`` both stacks must agree on.  GS is the
#: post-paper Granular Synchrony model (canonical hub-based assumption
#: matrix); its closed form is exact, like ES's.
DIFF_MODELS = ("ES", "AFM", "LM", "WLM", "GS")

#: Warm-up rounds excluded from the statistics on both paths (start
#: effects: staggered first rounds, empty inboxes), matching the ``[5:]``
#: slice of the sync-vs-matrix integration tests.
WARMUP_ROUNDS = 5

#: Tolerance on the measured timely fraction ``p`` (the integration test
#: uses 0.06 for the clean WAN case; fault plans add alignment noise).
P_TOLERANCE = 0.10

#: Tolerance on a per-model ``P_M`` (integration precedent: 0.22).
PM_TOLERANCE = 0.25

#: Tolerance on the event path's mean round-sync error, as a fraction of
#: the timeout.  Jump-shortened rounds legitimately start early by up to
#: ``timeout - L_i[src]``, so a fraction of the timeout is the natural
#: unit; 0 would only hold for perfectly synchronized starts.
SYNC_TOLERANCE = 0.6


@dataclass(frozen=True)
class DiffRow:
    """One diffed observable: a value from each stack plus the tolerance.

    ``kind`` is ``"abs"`` (agree within ``tolerance``) or
    ``"lower-bound"`` (``event >= lockstep - tolerance`` — used where the
    reference value is a provable lower bound, e.g. equation (9) for
    AFM).  Two NaNs agree (both sides censored); a single NaN is a
    disagreement.
    """

    quantity: str
    lockstep: float
    event: float
    tolerance: float
    kind: str = "abs"

    @property
    def delta(self) -> float:
        return self.event - self.lockstep

    @property
    def ok(self) -> bool:
        lock_nan = math.isnan(self.lockstep)
        event_nan = math.isnan(self.event)
        if lock_nan or event_nan:
            return lock_nan and event_nan
        if self.kind == "lower-bound":
            return self.event >= self.lockstep - self.tolerance
        return abs(self.event - self.lockstep) <= self.tolerance


@dataclass
class DifferentialResult:
    """Everything one row of the conformance grid produced."""

    scenario: ProbeScenario
    #: The scenario's name in the report (the twin axis appends itself).
    profile: str
    rows: list[DiffRow]
    #: ``(stack, violation)`` pairs from the consensus safety runs, where
    #: ``stack`` is ``"lockstep"`` or ``"event"``.
    violations: list[tuple[str, Violation]] = field(default_factory=list)

    @property
    def fault(self) -> str:
        return self.scenario.fault

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows) and not self.violations


def canonical_diff_plan(n: int, rounds: int, seed: int = 0) -> FaultPlan:
    """The standard transient-fault scenario of the conformance runs.

    Recoverable crash, loss burst, degraded node — spread over the middle
    of the run, all transient, so ``correct()`` stays everyone and both
    stacks keep their round counts aligned (a permanent crash would make
    the event path's observation window a per-scenario quantity).
    """
    if rounds < 40:
        raise ValueError("the canonical plan needs at least 40 rounds")
    third = max(8, rounds // 3)
    return FaultPlan(
        n=n,
        crashes=(Crash(pid=min(2, n - 1), at_round=third, recover_round=third + 4),),
        loss_bursts=(LossBurst(start_round=third + 8, end_round=third + 10, drop_prob=0.9),),
        slow_nodes=(
            SlowNode(
                pid=n - 1,
                start_round=third + 14,
                end_round=third + 18,
                factor=3.0,
                drop_prob=0.5,
            ),
        ),
        seed=derive_seed(seed, "check:canonical-plan"),
    )


def canonical_adversary_plan(n: int, rounds: int, seed: int = 0) -> FaultPlan:
    """The standard eventually-stabilizing-adversary scenario.

    GSR sits at a third of the run: the first third grants only short
    vertex-stable root-component windows (full suppression in between),
    the remaining two thirds are clean — long enough for the decision
    statistics of both stacks to stabilize.  Batch-eligible by
    construction (loss bursts and partitions only).
    """
    if rounds < 60:
        raise ValueError("the canonical adversary plan needs at least 60 rounds")
    return StabilityWindowAdversary(
        n=n,
        gsr_round=max(17, rounds // 3),
        window_length=3,
        window_period=8,
        seed=derive_seed(seed, "check:adversary"),
    ).to_plan()


def _consensus_safety(
    row: ProbeScenario,
    ideal_matrices: np.ndarray,
    metrics: Optional[MetricsRegistry],
) -> list[tuple[str, Violation]]:
    """Run Algorithm 2 through both stacks with the safety checkers on.

    The lockstep side replays the scenario's *unfaulted* idealized
    matrices with the plan installed as the runner's ``fault_plan``; the
    event side runs the full protocol with the plan installed on the
    wire.  Neither run is required to decide — safety invariants are
    unconditional — but on these profiles they normally do, which is
    what makes the check non-vacuous.
    """

    def factory(pid: int) -> WlmConsensus:
        return WlmConsensus(pid, row.n, f"value-{pid}")

    violations: list[tuple[str, Violation]] = []

    lock_suite = default_suite(metrics=metrics)
    runner = row.lockstep_run(factory, ideal_matrices, observers=[lock_suite])
    lock_run = runner.run(
        max_rounds=row.rounds,
        stop_on_global_decision=True,
        extra_rounds_after_decision=2,
    )
    lock_suite.finish(lock_run)
    violations.extend(("lockstep", v) for v in lock_suite.violations)

    event_suite = default_suite(metrics=metrics)
    profile = row.network("consensus")
    sync = SyncRun(
        row.n,
        factory,
        FixedLeaderOracle(row.leader),
        lambda sim: Transport(sim, profile),
        timeout=row.timeout,
        latency_table=row.table,
        max_rounds=row.rounds,
        fault_plan=row.plan,
        metrics=metrics,
        observers=[event_suite],
    )
    event_suite.finish(sync.run())
    violations.extend(("event", v) for v in event_suite.violations)
    return violations


def _observables(matrices: np.ndarray, row: ProbeScenario) -> dict[str, float]:
    """What one stack measured, by quantity: the timely fraction ``p``,
    ``P_M`` per model and the headline model's (◊WLM, window 4) measured
    decision rounds."""
    leader = row.leader
    off_diag = ~np.eye(row.n, dtype=bool)
    values = {"measured p": float(matrices[:, off_diag].mean())}
    for model in DIFF_MODELS:
        values[f"P_{model}"] = model_satisfaction(matrices, model, leader=leader)
    values["D_WLM rounds"] = decision_stats_from_vector(
        satisfaction_vector(matrices, "WLM", leader=leader),
        window=equations.DECISION_ROUNDS["WLM"],
        round_length=row.timeout,
        start_points=12,
    ).mean_rounds
    return values


def differential_run(
    row: ProbeScenario, metrics: Optional[MetricsRegistry] = None
) -> DifferentialResult:
    """Drive one scenario through both stacks and diff the observables.

    Both stacks consume the *same* trace seed — the row's ``"trace"``
    stream: the event transport reads each link's lane of its columns,
    the lockstep path samples the batch trace — so differences reflect the
    round-cutting protocol, not different networks.
    """
    timeout = row.timeout

    # Event path: the heartbeat probe stream through the real protocol.
    event_result = row.event_run("trace", metrics=metrics).run()

    # Lockstep path: same trace seed, synchronized windows, plan masks.
    trace = sample_latency_trace(row.network("trace"), row.rounds, timeout)
    ideal = timely_matrices(trace, timeout)
    faulted = (
        row.plan.apply_to_matrices(ideal) if row.plan is not None else ideal
    )

    depth = min(len(event_result.matrices), len(faulted))
    if depth <= WARMUP_ROUNDS + 20:
        raise ValueError(
            f"scenario too short to compare: only {depth} common rounds"
        )
    lock_m = np.asarray(faulted[WARMUP_ROUNDS:depth])
    event_m = np.asarray(event_result.matrices[WARMUP_ROUNDS:depth])

    lock, event = _observables(lock_m, row), _observables(event_m, row)
    tolerances = dict.fromkeys(lock, PM_TOLERANCE)
    tolerances["measured p"] = P_TOLERANCE
    lock_mean = lock["D_WLM rounds"]
    tolerances["D_WLM rounds"] = (
        6.0 if math.isnan(lock_mean) else max(6.0, 0.8 * lock_mean)
    )
    rows = [
        DiffRow(quantity, lock[quantity], event[quantity], tolerance)
        for quantity, tolerance in tolerances.items()
    ]

    # Round synchronization: the idealization assumes perfectly aligned
    # windows; the protocol must stay within a fraction of the timeout.
    errors = np.asarray(event_result.sync_error[WARMUP_ROUNDS:depth], dtype=float)
    finite = errors[~np.isnan(errors)]
    sync_ratio = float(finite.mean() / timeout) if finite.size else float("nan")
    rows.append(DiffRow("sync error / timeout", 0.0, sync_ratio, SYNC_TOLERANCE))

    return DifferentialResult(
        row, row.name, rows, _consensus_safety(row, ideal, metrics)
    )


# ----------------------------------------------------------------------
# The scalar-vs-batched axis of the event stack.
# ----------------------------------------------------------------------


def canonical_batch_plan(n: int, rounds: int, seed: int = 0) -> FaultPlan:
    """The standard *batch-eligible* fault scenario: permanent crash,
    loss burst, partition, and slow node at round granularity — exactly
    the fault classes the widened fast path covers (no recoveries, no
    clock steps)."""
    if rounds < 40:
        raise ValueError("the canonical batch plan needs at least 40 rounds")
    third = max(8, rounds // 3)
    half = n // 2
    return FaultPlan(
        n=n,
        crashes=(Crash(pid=min(2, (n + 1) // 2 - 1), at_round=third),),
        loss_bursts=(
            LossBurst(
                start_round=third + 8, end_round=third + 10, drop_prob=0.9
            ),
        ),
        partitions=(
            Partition(
                groups=(tuple(range(half)), tuple(range(half, n))),
                start_round=third + 14,
                heal_round=third + 18,
            ),
        ),
        slow_nodes=(
            SlowNode(
                pid=n - 1,
                start_round=third + 22,
                end_round=third + 26,
                factor=3.0,
                drop_prob=0.5,
            ),
        ),
        seed=derive_seed(seed, "check:canonical-batch-plan"),
    )


def batched_differential_run(
    row: ProbeScenario, dynamic: Optional[_Factory] = None
) -> DifferentialResult:
    """Cross-check the two execution paths *within* the event stack.

    Unlike :func:`differential_run` — which compares two different
    idealizations within tolerances — the batched structure-of-arrays
    path (:mod:`repro.sync.batch`) claims **bit identity** with the
    scalar event loop, so every row here carries tolerance ``0.0``: a
    facet of :func:`~repro.sync.batch.twin_runs`' verdict either matches
    exactly (``1.0``) or the axis fails (``0.0``).

    The row's profile must be a time-invariant variant (the batch path's
    eligibility condition); ``dynamic``, when given, builds the
    time-*varying* variant and probes the other half of the contract —
    that such a run falls back to the scalar loop and reports why.

    With a plan on the row — which must be batch-eligible, like
    :func:`canonical_batch_plan` or the round-granular loss bursts and
    stability-window partitions of :func:`canonical_adversary_plan` —
    the twin runs carry the widened fast path's full load: the plan, a
    live metrics registry on the run and the transport, and the
    :class:`HeartbeatOmega` detector — and two extra rows assert that
    the ``repro.obs`` counter totals and latency histograms match
    exactly too.
    """
    instrumented = row.plan is not None

    def build(scenario: ProbeScenario = row) -> SyncRun:
        metrics = MetricsRegistry() if instrumented else None
        return scenario.event_run(
            "batch-axis", metrics=metrics, omega=instrumented
        )

    def exact(quantity: str, holds: bool) -> DiffRow:
        return DiffRow(quantity, 1.0, 1.0 if holds else 0.0, 0.0)

    twins = twin_runs(build)
    facets = RESULT_FIELDS + RUN_FACETS
    if instrumented:
        facets += METRIC_FACETS
    rows = [exact("batch path engaged", twins.auto_run.executed_mode == "batch")]
    rows.extend(
        exact(f"identical: {facet}", facet not in twins.diverged)
        for facet in facets
    )
    if dynamic is not None:
        probe = build(replace(row, profile=dynamic))
        probe.run()
        rows.append(
            exact(
                "dynamic variant falls back",
                probe.executed_mode == "scalar"
                and probe.fallback_reason is not None,
            )
        )

    return DifferentialResult(row, f"{row.name} [{TWIN}]", rows)


# ----------------------------------------------------------------------
# Monte Carlo versus the closed forms.
# ----------------------------------------------------------------------

def montecarlo_vs_equations(
    p_grid: Sequence[float] = (0.9, 0.95, 0.99),
    n: int = 5,
    samples: int = 3000,
    seed: int = 0,
) -> list[DiffRow]:
    """Cross-check :func:`estimate_p_model` against equations (1)-(10).

    ES/◊LM/◊WLM closed forms are exact, so the Monte-Carlo estimate must
    land within a CLT band (4 sigma plus a small floor); equation (9)
    for AFM deliberately drops the row/column dependence and is only a
    lower bound, so its row uses ``kind="lower-bound"``.
    """
    rows: list[DiffRow] = []
    for p in p_grid:
        for model_name in DIFF_MODELS:
            closed = float(equations.P_MODEL[model_name](p, n))
            estimate = estimate_p_model(
                model_name,
                p,
                n,
                samples=samples,
                seed=derive_seed(seed, f"check:mc:{model_name}:{p!r}"),
            )
            sigma = math.sqrt(max(closed * (1.0 - closed), 1e-12) / samples)
            tolerance = 4.0 * sigma + 0.01
            rows.append(
                DiffRow(
                    f"P_{model_name}(p={p}, n={n})",
                    closed,
                    estimate,
                    tolerance,
                    kind="lower-bound" if model_name == "AFM" else "abs",
                )
            )
    return rows


# ----------------------------------------------------------------------
# The full conformance sweep.
# ----------------------------------------------------------------------

#: Timeout for the WAN scenario (the paper's PlanetLab knee region).
WAN_TIMEOUT = 0.21
#: Timeout for the LAN scenario (0.9 ms: comfortably above the ~0.1 ms
#: medians, inside the Figure 1(c) grid).
LAN_TIMEOUT = 0.0009
#: Timeout for the uniform mid-latency WAN scenario.
UNIFORM_TIMEOUT = 0.1
#: Timeout for the Granular Synchrony scenario (same regime as the
#: uniform WAN it wraps; the per-link bounds sit well below it).
GRANULAR_TIMEOUT = 0.1


class Profile(NamedTuple):
    """One conformance network (``n = 8``): its timeout, the profile as
    the two-stack diff runs it, its time-invariant (batch-eligible)
    variant and, where there is one, the time-varying variant that must
    fall back.  Every factory takes the ``seed`` keyword."""

    timeout: float
    full: _Factory
    static: _Factory
    dynamic: Optional[_Factory]


#: The four network profiles every conformance run covers.
PROFILES = {
    "planetlab-wan": Profile(
        WAN_TIMEOUT,
        planetlab_profile,
        partial(planetlab_profile, slow_run_prob=0.0),
        partial(planetlab_profile, slow_run_prob=1.0),
    ),
    "lan": Profile(
        LAN_TIMEOUT, lan_profile, partial(lan_profile, slow_node=None), lan_profile
    ),
    "uniform-wan": Profile(
        UNIFORM_TIMEOUT, uniform_wan_profile, uniform_wan_profile, None
    ),
    "granular-wan": Profile(
        GRANULAR_TIMEOUT,
        granular_wan_profile,
        granular_wan_profile,
        # A pending psync stabilization makes the contract
        # time-varying: the batch path must fall back and say why.
        partial(granular_wan_profile, stabilization_time=4.0),
    ),
}

#: Fault label -> the plan's builder ``(n, rounds, seed=)``; the
#: ``-batch`` plans are the batch-eligible ones the twin runs carry.
PLANS = {
    "none": None,
    "canonical": canonical_diff_plan,
    "adversary": canonical_adversary_plan,
    "canonical-batch": canonical_batch_plan,
    "adversary-batch": canonical_adversary_plan,
}

TWO_STACK, TWIN = "two-stack", "scalar-vs-batched"


class GridRow(NamedTuple):
    """One scenario of the conformance sweep: which check — :data:`TWO_STACK`
    is :func:`differential_run`, :data:`TWIN` is
    :func:`batched_differential_run` — on which of :data:`PROFILES`, under
    which of :data:`PLANS`.  Adding a scenario is adding a row."""

    check: str
    profile: str
    fault: str


GRID = (
    *(
        GridRow(TWO_STACK, profile, fault)
        for profile in PROFILES
        for fault in ("none", "canonical", "adversary")
    ),
    # The clean twin also probes the profile's dynamic variant; the
    # canonical-batch one is the widened fast path under live metrics
    # and the Omega detector.
    *(
        GridRow(TWIN, profile, fault)
        for profile in PROFILES
        for fault in ("none", "canonical-batch")
    ),
    # One adversary run on the granular profile proves the stability-window
    # plan's epoch segmentation stays on the bit-identical fast path.
    GridRow(TWIN, "granular-wan", "adversary-batch"),
)


@dataclass
class ConformanceReport:
    """Everything :func:`run_conformance` observed."""

    results: list[DifferentialResult] = field(default_factory=list)
    mc_rows: list[DiffRow] = field(default_factory=list)
    #: The scalar-vs-batched axis: bit-identity of the event stack's two
    #: execution paths on each profile's static variant, plus the
    #: fallback probes (see :func:`batched_differential_run`).
    batch_axis: list[DifferentialResult] = field(default_factory=list)
    #: Did the checkers flag the deliberately broken Algorithm 2 variant?
    mutation_detected: bool = False
    #: Did the intact Algorithm 2 survive the same adversarial schedule?
    mutation_clean: bool = False

    @property
    def ok(self) -> bool:
        return (
            all(result.ok for result in self.results)
            and all(result.ok for result in self.batch_axis)
            and all(row.ok for row in self.mc_rows)
            and self.mutation_detected
            and self.mutation_clean
        )


def _mutation_smoke() -> tuple[bool, bool]:
    """The self-test: checkers must fire on the mutant, not on the real
    Algorithm 2, over the same adversarial schedule.

    Deliberately un-metered: the mutant's violation is expected, and
    counting it in ``check.violations`` would make a healthy conformance
    run indistinguishable from a broken one in the telemetry.
    """
    broken_suite = default_suite()
    broken_run = agreement_violation_run(observers=[broken_suite])
    broken_suite.finish(broken_run)
    detected = any(
        violation.invariant == "agreement"
        for violation in broken_suite.violations
    )

    clean_suite = default_suite()
    clean_run = agreement_violation_run(
        observers=[clean_suite], algorithm=WlmConsensus
    )
    clean_suite.finish(clean_run)
    return detected, clean_suite.ok


def run_conformance(
    seed: int = 0,
    mc_samples: int = 3000,
    metrics: Optional[MetricsRegistry] = None,
) -> ConformanceReport:
    """The full conformance sweep: every row of :data:`GRID`, plus the
    Monte-Carlo cross-check and the mutation self-test.  Rows over one
    profile variant share its ping."""
    n, rounds = 8, 120
    report = ConformanceReport()
    plans = {
        fault: build(n, rounds, seed=seed) if build else None
        for fault, build in PLANS.items()
    }
    pinged: dict[tuple[str, _Factory], ProbeScenario] = {}
    for grid_row in GRID:
        name, profile = grid_row.profile, PROFILES[grid_row.profile]
        twin = grid_row.check == TWIN
        variant = profile.static if twin else profile.full
        if (name, variant) not in pinged:
            pinged[name, variant] = ProbeScenario(
                name, variant, profile.timeout, rounds, seed, f"check:{name}"
            )
        row = replace(
            pinged[name, variant],
            plan=plans[grid_row.fault],
            fault=grid_row.fault,
        )
        if twin:
            dynamic = profile.dynamic if row.plan is None else None
            report.batch_axis.append(batched_differential_run(row, dynamic))
        else:
            report.results.append(differential_run(row, metrics=metrics))
    report.mc_rows = montecarlo_vs_equations(samples=mc_samples, seed=seed)
    report.mutation_detected, report.mutation_clean = _mutation_smoke()
    return report


# ----------------------------------------------------------------------
# Rendering.
# ----------------------------------------------------------------------


def _render_result(result: DifferentialResult, lines: list[str]) -> None:
    scenario = result.scenario
    lines.append(
        f"scenario: {result.profile}  faults={result.fault}  "
        f"timeout={scenario.timeout:g}s  rounds={scenario.rounds}  "
        f"leader={scenario.leader}  seed={scenario.seed}"
    )
    header = (
        f"  {'quantity':<28}{'lockstep':>10}{'event':>10}"
        f"{'delta':>10}{'tol':>8}  status"
    )
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for row in result.rows:
        lines.append(
            f"  {row.quantity:<28}{format_cell(row.lockstep):>10}"
            f"{format_cell(row.event):>10}"
            f"{format_cell(row.delta, '+.4f'):>10}{row.tolerance:>8.3f}  "
            f"{'ok' if row.ok else 'FAIL'}"
        )
    if result.violations:
        lines.append("  invariant violations:")
        for stack, violation in result.violations:
            lines.append(f"    {stack}: {violation}")
    else:
        lines.append("  invariant violations: none")
    lines.append("")


def conformance_report(report: ConformanceReport) -> str:
    """Human-readable conformance summary (written to
    ``benchmarks/results/conformance.txt`` by the tier-2 benchmark)."""
    lines = [
        "Conformance: differential validation of the two execution stacks",
        "=" * 68,
        "",
    ]
    for result in report.results:
        _render_result(result, lines)

    if report.batch_axis:
        lines.append(
            "Scalar vs batched execution of the event stack "
            "(exact equality, tolerance 0)"
        )
        lines.append("-" * 68)
        for result in report.batch_axis:
            _render_result(result, lines)

    lines.append("Monte Carlo vs closed forms (equations (1)-(10))")
    lines.append("-" * 48)
    for row in report.mc_rows:
        relation = ">=" if row.kind == "lower-bound" else "~="
        lines.append(
            f"  {row.quantity:<24} closed={format_cell(row.lockstep):>8}  "
            f"mc={format_cell(row.event):>8}  "
            f"({relation} within {row.tolerance:.4f})  "
            f"{'ok' if row.ok else 'FAIL'}"
        )
    lines.append("")
    lines.append(
        "mutation self-test: broken Algorithm 2 detected="
        f"{'yes' if report.mutation_detected else 'NO'}, "
        f"intact Algorithm 2 clean={'yes' if report.mutation_clean else 'NO'}"
    )
    lines.append("")
    lines.append(f"overall: {'PASS' if report.ok else 'FAIL'}")
    return "\n".join(lines) + "\n"
