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

The leg cross-checks itself: the same run forced through the scalar
event loop must produce bit-identical results *and* an extractor with
byte-identical windows, estimates, and recommendation.  That is the
adaptive phase's half of the fast path's contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.adaptive.extractor import ModelEstimate, TimelinessExtractor
from repro.adaptive.scenario import ScenarioConfig, churn_plan
from repro.net.ping import measure_latency_table, select_leader
from repro.net.planetlab import planetlab_profile
from repro.obs.registry import MetricsRegistry
from repro.oracles.omega import HeartbeatOmega
from repro.sim.rng import derive_seed
from repro.sim.transport import Transport
from repro.sync.batch import run_divergences
from repro.sync.heartbeat import HeartbeatAlgorithm
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


def _same_estimate(
    a: Optional[ModelEstimate], b: Optional[ModelEstimate]
) -> bool:
    """Field equality with NaN == NaN (a never-held cell's expected time
    is NaN on both sides and must compare as the same answer)."""
    if a is None or b is None:
        return a is b
    return (
        (a.model, a.timeout, a.leader, a.satisfaction, a.holds)
        == (b.model, b.timeout, b.leader, b.satisfaction, b.holds)
        and (
            a.expected_time == b.expected_time
            or (a.expected_time != a.expected_time
                and b.expected_time != b.expected_time)
        )
    )


def run_live_extraction(
    config: ScenarioConfig = ScenarioConfig(),
    metrics: Optional[MetricsRegistry] = None,
) -> LiveExtractionReport:
    """Run the churn plan through the event stack with a live extractor.

    The run uses ``config.tick`` as its round timeout so the plan's
    ``[(k-1)·tick, k·tick)`` wall-time grid and the protocol's round
    grid coincide — the same anchoring the scenario's matrix path uses.
    """
    ping_profile = planetlab_profile(
        seed=derive_seed(config.seed, "adaptive:ping")
    )
    table = measure_latency_table(ping_profile, pings=15)
    leader = select_leader(table)
    plan = churn_plan(config, leader=leader)
    heal = max(
        (p.heal_round for p in plan.partitions),
        default=max((s.end_round for s in plan.slow_nodes), default=1),
    )
    rounds = heal + COOLDOWN_ROUNDS
    timeout = config.tick
    profile_seed = derive_seed(config.seed, "adaptive:live:profile")

    def build() -> tuple[SyncRun, TimelinessExtractor]:
        extractor = TimelinessExtractor(
            config.n,
            config.timeouts,
            window=config.window,
            min_rounds=config.min_window,
            metrics=metrics,
        )
        extractor.running_timeout = timeout
        run = SyncRun(
            config.n,
            lambda pid: HeartbeatAlgorithm(pid, config.n),
            HeartbeatOmega(config.n),
            lambda sim: Transport(
                sim,
                planetlab_profile(seed=profile_seed, slow_run_prob=0.0),
            ),
            timeout=timeout,
            latency_table=table,
            max_rounds=rounds,
            fault_plan=plan,
            observers=[extractor],
        )
        return run, extractor

    live_run, live_extractor = build()
    live_result = live_run.run()
    scalar_run, scalar_extractor = build()
    scalar_result = scalar_run.run(mode="scalar")

    live_rec = live_extractor.recommend()
    scalar_estimates = scalar_extractor.estimates()
    live_estimates = live_extractor.estimates()
    identical = (
        not run_divergences(scalar_run, scalar_result, live_run, live_result)
        and _windows(scalar_extractor) == _windows(live_extractor)
        and len(scalar_estimates) == len(live_estimates)
        and all(
            _same_estimate(a, b)
            for a, b in zip(scalar_estimates, live_estimates)
        )
        and _same_estimate(scalar_extractor.recommend(), live_rec)
    )
    return LiveExtractionReport(
        executed_mode=live_run.executed_mode,
        fallback_reason=live_run.fallback_reason,
        identical=identical,
        rounds=rounds,
        timeout=timeout,
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
        expected = (
            f"{best.expected_time:.2f}s"
            if np.isfinite(best.expected_time)
            else "-"
        )
        lines.append(
            f"recommendation: {best.model}@{best.timeout:.2f}s "
            f"(leader {leader}, expected {expected})"
        )
    else:
        lines.append("recommendation: none (window too small or nothing held)")
    return "\n".join(lines)
