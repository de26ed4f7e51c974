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

The report's tail says which execution path each canonical plan takes
through the event stack — run once, in auto mode, over one pinged WAN
(:class:`~repro.sync.heartbeat.ProbeScenario`) — and why the scalar
ones fall back.  That the batched ones equal the scalar event loop is
proved in one place, ``--check``'s scalar-vs-batched axis
(:func:`~repro.check.differential.batched_differential_run`), which
also carries this module's crash+recover and leader-churn plans.

Run it through ``python -m repro.experiments --faults`` or directly via
:func:`robustness_report`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Optional, Sequence

import numpy as np

from repro.experiments.decision import mean_over_deciding_runs
from repro.experiments.figures import MEASURED_MODELS, WanSweep
from repro.experiments.measurement import satisfied_fractions
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
    """Clean-versus-faulted P_M and decision latency per (fault, model).

    The clean cells are the sweep's own tables at ``timeout`` — its
    ``D`` is Figure 1(g)'s — and the faulted ``D`` is measured from the
    same start points (:meth:`WanSweep.start_points`).
    """
    config = sweep.config
    t_index = list(config.timeouts).index(timeout)
    clean = np.stack([run.matrices for run in sweep.runs[timeout]])
    starts = sweep.start_points()[t_index]
    pm_clean = {
        model: float(np.mean(satisfied_fractions(sweep.satisfied(model)[t_index])))
        for model in MEASURED_MODELS
    }
    plans = canonical_plans(config.n, config.rounds_per_run, seed)

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
            satisfied = np.array(
                [_satisfaction(m, model, leaders, correct) for m in faulted]
            )
            cells.append(
                RobustnessCell(
                    fault=fault_name,
                    model=model,
                    pm_clean=pm_clean[model],
                    pm_faulted=float(np.mean(satisfied_fractions(satisfied))),
                    rounds_clean=sweep.decision_rounds(model)[t_index],
                    rounds_faulted=mean_over_deciding_runs(
                        satisfied, get_model(model).decision_rounds, starts
                    ),
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
    """The execution path one fault class takes through the event stack."""

    fault: str
    executed_mode: str
    fallback_reason: Optional[str]


def event_stack_crosscheck(
    n: int,
    rounds: int,
    timeout: float,
    seed: int = 0,
    metrics: Optional[MetricsRegistry] = None,
) -> list[EventStackRow]:
    """Run each canonical fault class once through :class:`SyncRun` in
    auto mode — on a static WAN profile, with live metrics and the
    HeartbeatOmega detector — and record the path it executed: the
    batched fast path, or the scalar event loop and the reason it fell
    back.  One row per :func:`canonical_plans` entry, all over one
    pinged network.  Each run keeps a registry of its own; the path it
    took is counted into ``metrics`` too.

    Nothing is run twice here: the batched rows' identity with the
    scalar loop is ``--check``'s to prove
    (:func:`~repro.check.differential.batched_differential_run`).
    """
    network = ProbeScenario(
        "planetlab-static",
        partial(planetlab_profile, slow_run_prob=0.0),
        timeout,
        rounds,
        seed,
        "faults:event-stack",
    )

    def execute(fault: str, plan: FaultPlan) -> EventStackRow:
        run = replace(network, plan=plan, fault=fault).event_run(
            "profile", metrics=MetricsRegistry(), omega=True
        )
        run.run()
        run.count_path(metrics)
        return EventStackRow(fault, run.executed_mode, run.fallback_reason)

    return [
        execute(fault, plan)
        for fault, plan in canonical_plans(n, rounds, seed).items()
    ]


def render_event_stack(
    rows: Sequence[EventStackRow], rounds: int, timeout: float
) -> str:
    """The executed-mode distribution table for the report's tail."""
    title = (
        f"Event-stack execution paths ({rounds} rounds at "
        f"{timeout * 1000:.0f} ms, live metrics + HeartbeatOmega): "
        "auto-mode SyncRun"
    )
    lines = [title, "-" * len(title)]
    lines.append(f"{'fault class':<16}{'executed mode':<15}fallback reason")
    for row in rows:
        lines.append(
            f"{row.fault:<16}{row.executed_mode:<15}"
            f"{row.fallback_reason or '-'}"
        )
    modes = [row.executed_mode for row in rows]
    lines.append(
        f"executed modes: {modes.count('batch')} batch / "
        f"{modes.count('scalar')} scalar"
    )
    return "\n".join(lines)


def robustness_report(
    sweep: WanSweep, seed: int = 0, metrics: Optional[MetricsRegistry] = None
) -> str:
    """Measure and render the robustness phase on a shared sweep; the
    event-stack runs' paths are counted into ``metrics``."""
    timeout = min(
        sweep.config.timeouts, key=lambda t: abs(t - CANONICAL_TIMEOUT)
    )
    cells = measure_robustness(sweep, seed=seed, timeout=timeout)
    stack_rows = event_stack_crosscheck(
        sweep.config.n, sweep.config.rounds_per_run, timeout, seed=seed,
        metrics=metrics,
    )
    return (
        render_robustness(cells, timeout)
        + "\n\n"
        + render_event_stack(
            stack_rows, sweep.config.rounds_per_run, timeout
        )
    )
