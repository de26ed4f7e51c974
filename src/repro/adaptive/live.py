"""Live timeliness extraction over the event stack's batched hot path.

The ROADMAP's adaptive item asks for extraction over the event stack's
*live* stream instead of post-hoc matrix replay.  This module is that
leg: a :class:`~repro.sync.round_sync.SyncRun` under the churn
scenario's fault plan (the slow-set degradation and the partition, on
the round grid) carries a :class:`~repro.adaptive.extractor.
TimelinessExtractor` as an observer, fed each round's delivery matrix
through the ``on_round_matrix`` seam — and because round-granular slow
nodes and partitions are inside the widened batch eligibility, the whole
run executes on the vectorized fast path while the extractor watches.

The leg is one :class:`~repro.sync.heartbeat.ProbeScenario` row and
cross-checks itself through :func:`~repro.sync.batch.twin_runs`: the
same run forced through the scalar event loop must produce bit-identical
results *and* an extractor with byte-identical windows, estimates, and
recommendation.  That is the adaptive phase's half of the fast path's
contract.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Optional

from repro.adaptive.extractor import ModelEstimate, TimelinessExtractor
from repro.adaptive.scenario import ScenarioConfig, churn_plan
from repro.experiments.report import format_cell
from repro.net.planetlab import planetlab_profile
from repro.obs.registry import MetricsRegistry
from repro.sync.batch import twin_runs
from repro.sync.heartbeat import ProbeScenario
from repro.sync.round_sync import SyncRun

#: Rounds past the plan's heal point the live run keeps observing, so
#: the extractor's window is fully post-heal by the end.
COOLDOWN_ROUNDS = 40


@dataclass
class LiveExtractionReport:
    """Outcome of the live-extraction leg, both execution modes."""

    executed_mode: str
    fallback_reason: Optional[str]
    identical: bool
    rounds: int
    timeout: float
    window_rounds: int
    holding: dict[str, Optional[float]]
    recommendation: Optional[ModelEstimate]


def _windows(extractor: TimelinessExtractor) -> dict[int, bytes]:
    return {
        k: matrix.tobytes() for k, matrix in extractor._rounds.items()
    }


def run_live_extraction(
    config: ScenarioConfig = ScenarioConfig(),
    metrics: Optional[MetricsRegistry] = None,
) -> LiveExtractionReport:
    """Run the churn plan through the event stack with a live extractor.

    The run uses ``config.tick`` as its round timeout so the plan's
    ``[(k-1)·tick, k·tick)`` wall-time grid and the protocol's round
    grid coincide — the same anchoring the scenario's matrix path uses.
    """
    pinged = ProbeScenario(
        "planetlab-wan",
        planetlab_profile,
        config.tick,
        COOLDOWN_ROUNDS,
        config.seed,
        "adaptive",
    )
    plan = churn_plan(config, leader=pinged.leader)
    row = replace(
        pinged,
        profile=partial(planetlab_profile, slow_run_prob=0.0),
        # The partition is the plan's last fault: it heals the round
        # after the plan falls quiet.
        rounds=plan.quiet_after() + 1 + COOLDOWN_ROUNDS,
        plan=plan,
        fault="churn",
    )

    def build() -> SyncRun:
        extractor = TimelinessExtractor(
            config.n,
            config.timeouts,
            window=config.window,
            min_rounds=config.min_window,
            metrics=metrics,
        )
        extractor.running_timeout = row.timeout
        return row.event_run("live:profile", omega=True, observers=[extractor])

    twins = twin_runs(build)
    (live_extractor,) = twins.auto_run.observers
    (scalar_extractor,) = twins.scalar_run.observers
    live_rec = live_extractor.recommend()
    # ``repr`` equality: field by field to the last bit, with NaN == NaN (a
    # never-held cell's expected time is NaN on both sides).
    identical = (
        not twins.diverged
        and _windows(scalar_extractor) == _windows(live_extractor)
        and repr(scalar_extractor.estimates()) == repr(live_extractor.estimates())
        and repr(scalar_extractor.recommend()) == repr(live_rec)
    )
    return LiveExtractionReport(
        executed_mode=twins.auto_run.executed_mode,
        fallback_reason=twins.auto_run.fallback_reason,
        identical=identical,
        rounds=row.rounds,
        timeout=row.timeout,
        window_rounds=live_extractor.rounds_seen,
        holding=live_extractor.holding(),
        recommendation=live_rec,
    )


def render_live_extraction(report: LiveExtractionReport) -> str:
    """The live-extraction section appended to the adaptive artifact."""
    title = (
        "live extraction over the event stack "
        f"({report.rounds} rounds at {report.timeout * 1000:.0f} ms, "
        "churn plan on the round grid)"
    )
    lines = [title, "-" * len(title)]
    lines.append(
        f"executed mode: {report.executed_mode}"
        + (
            f" (fallback: {report.fallback_reason})"
            if report.fallback_reason
            else ""
        )
    )
    lines.append(
        "scalar replay identical (results, windows, estimates): "
        + ("yes" if report.identical else "NO")
    )
    holding = " ".join(
        f"{model}@{held:.2f}" if held is not None else f"{model}@-"
        for model, held in report.holding.items()
    )
    lines.append(
        f"window: {report.window_rounds} rounds; models holding: {holding}"
    )
    best = report.recommendation
    if best is not None:
        leader = "-" if best.leader is None else str(best.leader)
        expected = format_cell(best.expected_time, ".2f", unit="s")
        lines.append(
            f"recommendation: {best.model}@{best.timeout:.2f}s "
            f"(leader {leader}, expected {expected})"
        )
    else:
        lines.append("recommendation: none (window too small or nothing held)")
    return "\n".join(lines)
