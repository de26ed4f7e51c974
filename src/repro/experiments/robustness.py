"""The robustness phase: decision latency and P_M under injected faults.

For each canonical fault class — crash-and-recover, a message-loss
burst, a network partition, a slow node, leader churn — the phase takes
the WAN sweep's already-sampled delivery matrices (so it reuses the
trace cache and the parallel engine's work: no new simulation), applies
the class's :class:`~repro.faults.plan.FaultPlan` with
:meth:`FaultPlan.apply_to_matrices`, and re-measures what the paper's
figures measure: per-model ``P_M`` and rounds to global decision.

The output table shows clean versus faulted values side by side — the
degradation each fault class inflicts on each timing model, which is the
experimental form of the paper's question "which model should you
assume?": a model whose ``P_M`` collapses under a realistic fault class
is a bad bet no matter how it scores on a clean network.

The report's tail is the phase's half of the fast path's contract: each
canonical plan as a row over one pinged WAN
(:class:`~repro.sync.heartbeat.ProbeScenario`), executed both ways by
:func:`~repro.sync.batch.twin_runs`.

Run it through ``python -m repro.experiments --faults`` or directly via
:func:`robustness_report`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Optional, Sequence

import numpy as np

from repro.experiments.decision import mean_decision_rounds
from repro.experiments.figures import MEASURED_MODELS, WanSweep
from repro.experiments.report import format_cell
from repro.models.registry import get_model
from repro.faults import (
    Crash,
    FaultPlan,
    LeaderChurn,
    LossBurst,
    Partition,
    SlowNode,
)
from repro.net.planetlab import planetlab_profile
from repro.obs.registry import MetricsRegistry
from repro.sim.rng import derive_seed
from repro.sync.batch import twin_runs
from repro.sync.heartbeat import ProbeScenario

#: The timeout the robustness tables are measured at (the sweep grid's
#: canonical mid-range point; the paper's WAN discussion centers there).
CANONICAL_TIMEOUT = 0.21


def canonical_plans(n: int, rounds: int, seed: int) -> dict[str, FaultPlan]:
    """One representative plan per fault class, scaled to ``rounds``.

    Every window sits inside the first two thirds of the trace so the
    post-fault tail is long enough for decision windows to complete.
    """
    third = max(4, rounds // 3)
    return {
        "crash+recover": FaultPlan(
            n=n,
            crashes=(
                Crash(pid=2, at_round=third // 2, recover_round=third),
                Crash(pid=5, at_round=third + third // 2),
            ),
            seed=derive_seed(seed, "faults:crash+recover"),
        ),
        "loss burst": FaultPlan(
            n=n,
            loss_bursts=(
                LossBurst(third // 2, third // 2 + 3, drop_prob=0.95),
                LossBurst(third, third + 1, drop_prob=1.0),
            ),
            seed=derive_seed(seed, "faults:loss-burst"),
        ),
        "partition": FaultPlan(
            n=n,
            partitions=(
                Partition(
                    groups=(
                        tuple(range(n // 2)),
                        tuple(range(n // 2, n)),
                    ),
                    start_round=third // 2,
                    heal_round=third,
                ),
            ),
            seed=derive_seed(seed, "faults:partition"),
        ),
        "slow node": FaultPlan(
            n=n,
            slow_nodes=(
                SlowNode(
                    pid=n - 1,
                    start_round=1,
                    end_round=2 * third,
                    drop_prob=0.7,
                ),
            ),
            seed=derive_seed(seed, "faults:slow-node"),
        ),
        "leader churn": FaultPlan(
            n=n,
            leader_churn=(LeaderChurn(1, 2 * third),),
            seed=derive_seed(seed, "faults:leader-churn"),
        ),
    }


@dataclass(frozen=True)
class RobustnessCell:
    """Clean-versus-faulted measurements for one (fault, model) pair."""

    fault: str
    model: str
    pm_clean: float
    pm_faulted: float
    rounds_clean: float
    rounds_faulted: float

    @property
    def latency_degradation(self) -> float:
        """Faulted over clean decision rounds (nan if either is censored)."""
        if not np.isfinite(self.rounds_clean) or self.rounds_clean <= 0:
            return float("nan")
        return self.rounds_faulted / self.rounds_clean


def _satisfaction(
    matrices: np.ndarray,
    model: str,
    leaders: np.ndarray,
    correct: Optional[list[int]],
) -> np.ndarray:
    """Per-round model satisfaction, against the round's *acting* leader.

    Leader churn never touches the wire, so its whole measured effect is
    that churn rounds are judged against whichever leader the plan's
    oracle elected that round (``leaders[k - 1]``) instead of the
    designated one.  Permanent crashes shrink the ``correct`` set the
    model predicates quantify over (the paper's models count links *from
    correct processes*).
    """
    resolved = get_model(model)
    matrices = np.asarray(matrices)
    if not resolved.needs_leader:
        return resolved.satisfied_batch(matrices, correct=correct)
    satisfied = np.empty(len(matrices), dtype=bool)
    for acting in np.unique(leaders):
        led = leaders == acting
        satisfied[led] = resolved.satisfied_batch(
            matrices[led], leader=int(acting), correct=correct
        )
    return satisfied


def measure_robustness(
    sweep: WanSweep, seed: int = 0, *, timeout: float
) -> list[RobustnessCell]:
    """Clean-versus-faulted P_M and decision latency per (fault, model)."""
    config = sweep.config
    runs = sweep.runs[timeout]
    clean = np.stack([run.matrices for run in runs])  # [run, round, dst, src]
    plans = canonical_plans(config.n, config.rounds_per_run, seed)
    designated = np.full(config.rounds_per_run, sweep.leader)

    def summarize(
        matrices_by_run: Sequence[np.ndarray],
        model: str,
        leaders: np.ndarray = designated,
        correct: Optional[list[int]] = None,
    ) -> tuple[float, float]:
        vecs = [
            _satisfaction(m, model, leaders, correct) for m in matrices_by_run
        ]
        pm = float(np.mean([vec.mean() for vec in vecs]))
        rounds = mean_decision_rounds(
            vecs,
            get_model(model).decision_rounds,
            config.start_points,
            lambda index: derive_seed(seed, f"faults:decision:{model}:{index}"),
        )
        return pm, rounds

    clean_summary = {model: summarize(clean, model) for model in MEASURED_MODELS}

    cells: list[RobustnessCell] = []
    for fault_name, plan in plans.items():
        # One mask stack per plan, shared by every run.
        faulted = plan.apply_to_matrices(clean)
        # Whoever a churn round elects: drawn once per plan, not per
        # (run, model).
        leaders = np.array(
            [
                plan.churn_leader(k) if plan.churning_at(k) else sweep.leader
                for k in range(1, config.rounds_per_run + 1)
            ]
        )
        correct = sorted(plan.correct()) if len(plan.correct()) < plan.n else None
        for model in MEASURED_MODELS:
            pm_clean, rounds_clean = clean_summary[model]
            pm_faulted, rounds_faulted = summarize(
                faulted, model, leaders, correct
            )
            cells.append(
                RobustnessCell(
                    fault=fault_name,
                    model=model,
                    pm_clean=pm_clean,
                    pm_faulted=pm_faulted,
                    rounds_clean=rounds_clean,
                    rounds_faulted=rounds_faulted,
                )
            )
    return cells


def render_robustness(
    cells: Sequence[RobustnessCell], timeout: float
) -> str:
    """The robustness table, in the benchmarks' plain-text style."""
    title = (
        f"Fault robustness at timeout {timeout * 1000:.0f} ms "
        f"(P_M and rounds to decision, clean -> faulted)"
    )
    lines = [title, "-" * len(title)]
    lines.append(
        f"{'fault class':<16}{'model':<7}{'P_M clean':>10}{'P_M fault':>10}"
        f"{'D clean':>10}{'D fault':>10}{'D ratio':>9}"
    )
    for cell in cells:
        lines.append(
            f"{cell.fault:<16}{cell.model:<7}"
            f"{cell.pm_clean:>10.3f}{cell.pm_faulted:>10.3f}"
            f"{format_cell(cell.rounds_clean, '.2f'):>10}"
            f"{format_cell(cell.rounds_faulted, '.2f'):>10}"
            f"{format_cell(cell.latency_degradation, '.2f'):>9}"
        )
    lines.append(
        "notes: faulted matrices are the sweep's cached traces with each "
        "fault class's FaultPlan mask applied; '-' = censored (no decision "
        "window inside the trace)."
    )
    return "\n".join(lines)


@dataclass(frozen=True)
class EventStackRow:
    """One fault class pushed through the event stack both ways."""

    fault: str
    executed_mode: str
    fallback_reason: Optional[str]
    identical: bool


def event_stack_crosscheck(
    n: int, rounds: int, timeout: float, seed: int = 0
) -> list[EventStackRow]:
    """Run each canonical fault class through :class:`SyncRun` twice —
    auto mode (batched where eligible) and forced scalar — on a static
    WAN profile with live metrics and the HeartbeatOmega detector, and
    record the executed mode plus whether the artifacts are identical.

    This is the robustness phase's half of the widened fast path's
    contract: fault classes the batch path claims (loss bursts,
    partitions, slow nodes, permanent crashes, leader churn) must ride
    it bit-identically; the residual classes (crash *recovery*) must
    fall back with an attributed reason.  One row per
    :func:`canonical_plans` entry, all over one pinged network.
    """
    network = ProbeScenario(
        "planetlab-static",
        partial(planetlab_profile, slow_run_prob=0.0),
        timeout,
        rounds,
        seed,
        "faults:event-stack",
    )

    def crosscheck(fault: str, plan: FaultPlan) -> EventStackRow:
        # The verdict only: the pair of runs is let go on return.
        row = replace(network, plan=plan, fault=fault)
        twins = twin_runs(
            lambda: row.event_run("profile", metrics=MetricsRegistry(), omega=True)
        )
        return EventStackRow(
            fault,
            twins.auto_run.executed_mode,
            twins.auto_run.fallback_reason,
            identical=not twins.diverged,
        )

    return [
        crosscheck(fault, plan)
        for fault, plan in canonical_plans(n, rounds, seed).items()
    ]


def render_event_stack(
    rows: Sequence[EventStackRow], rounds: int, timeout: float
) -> str:
    """The executed-mode distribution table for the report's tail."""
    title = (
        f"Event-stack cross-check ({rounds} rounds at "
        f"{timeout * 1000:.0f} ms, live metrics + HeartbeatOmega): "
        "auto vs forced-scalar SyncRun"
    )
    lines = [title, "-" * len(title)]
    lines.append(
        f"{'fault class':<16}{'executed mode':<15}{'identical':<11}"
        "fallback reason"
    )
    for row in rows:
        lines.append(
            f"{row.fault:<16}{row.executed_mode:<15}"
            f"{'yes' if row.identical else 'NO':<11}"
            f"{row.fallback_reason or '-'}"
        )
    modes = [row.executed_mode for row in rows]
    lines.append(
        f"executed modes: {modes.count('batch')} batch / "
        f"{modes.count('scalar')} scalar; artifacts identical on "
        f"{sum(row.identical for row in rows)}/{len(rows)} fault classes"
    )
    return "\n".join(lines)


def robustness_report(sweep: WanSweep, seed: int = 0) -> str:
    """Measure and render the robustness phase on a shared sweep."""
    timeout = min(
        sweep.config.timeouts, key=lambda t: abs(t - CANONICAL_TIMEOUT)
    )
    cells = measure_robustness(sweep, seed=seed, timeout=timeout)
    stack_rows = event_stack_crosscheck(
        sweep.config.n, sweep.config.rounds_per_run, timeout, seed=seed
    )
    return (
        render_robustness(cells, timeout)
        + "\n\n"
        + render_event_stack(
            stack_rows, sweep.config.rounds_per_run, timeout
        )
    )
