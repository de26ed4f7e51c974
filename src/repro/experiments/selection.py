"""How to choose a timing model — the paper's question as an API.

:func:`choose_timing_model` packages the full Section 5 methodology:
ping the network and fix a well-connected leader, sweep timeouts
measuring each model's conditions and decision time, find each model's
optimal timeout, and recommend a (model, timeout) pair — applying the
paper's conclusion that a weak model with linear message complexity is
"clearly well worth using" whenever its best decision time is within a
tolerance of the overall best.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Sequence

import numpy as np

from repro.analysis.crossover import optimal_timeout
from repro.experiments.decision import mean_decision_rounds
from repro.experiments.measurement import (
    sample_latency_trace,
    satisfaction_vector,
    satisfied_fraction,
    timely_matrices,
)
from repro.experiments.report import format_cell
from repro.models.registry import MODELS
from repro.net.base import LatencyModel
from repro.net.ping import measure_latency_table, select_leader
from repro.sim.rng import derive_seed

#: Models considered by the selector, in presentation order.
CANDIDATES = ("ES", "AFM", "LM", "WLM")


def _ping_seed(seed: int) -> int:
    """Seed of the ping-measurement profile."""
    return derive_seed(seed, "selection:ping")


def _cell_seed(seed: int, t_index: int, run: int) -> int:
    """Seed of one (timeout, run) sweep cell's network profile.

    Derived, not additive: the old ``seed + 101 * t_index + run`` scheme
    collided across cells whenever ``runs > 101`` (cell ``(t, 101)`` =
    cell ``(t+1, 0)``) and collided with the ping table's ``seed + 999``
    at ``(t_index=9, run=90)`` — reusing the measurement randomness
    inside the sweep it calibrates.
    """
    return derive_seed(seed, f"selection:cell:{t_index}:{run}")


def _decision_seed(seed: int, t_index: int, run: int) -> int:
    """Seed of one cell's decision-sampling RNG (start-point draws)."""
    return derive_seed(seed, f"selection:decision:{t_index}:{run}")


def _ms(seconds: float) -> str:
    """Milliseconds with enough precision for sub-millisecond LANs; a
    model that never decided reports ``—``."""
    ms = seconds * 1000
    return format_cell(ms, ".0f" if ms >= 10 else ".2f", "—", unit=" ms")


@dataclass(frozen=True)
class ModelReport:
    """One model's sweep outcome.

    Attributes:
        model: registry key.
        optimal_timeout: timeout minimizing measured decision time
            (``nan`` if the model never produced a decision window).
        best_decision_time: decision time at that timeout (seconds).
        satisfaction_at_best: ``P_M`` at the optimal timeout.
        message_complexity: ``"linear"`` or ``"quadratic"``.
    """

    model: str
    optimal_timeout: float
    best_decision_time: float
    satisfaction_at_best: float
    message_complexity: str


@dataclass
class Recommendation:
    """The selector's full answer."""

    leader: int
    reports: dict[str, ModelReport] = field(default_factory=dict)
    chosen_model: str = ""
    chosen_timeout: float = float("nan")
    rationale: str = ""

    def summary(self) -> str:
        lines = [
            f"elected leader: node {self.leader}",
            f"{'model':<6}{'opt timeout':>12}{'best time':>12}"
            f"{'P_M':>8}{'messages':>12}",
        ]
        for model in CANDIDATES:
            report = self.reports.get(model)
            if report is None:
                continue
            timeout = _ms(report.optimal_timeout)
            best = _ms(report.best_decision_time)
            satisfaction = format_cell(report.satisfaction_at_best, ".2f", "—")
            lines.append(
                f"{model:<6}{timeout:>12}{best:>12}"
                f"{satisfaction:>8}"
                f"{report.message_complexity:>12}"
            )
        lines.append("")
        lines.append(
            f"recommendation: {self.chosen_model} with a "
            f"{_ms(self.chosen_timeout)} timeout — {self.rationale}"
        )
        return "\n".join(lines)


def choose_timing_model(
    network: type | "LatencyModelFactory",
    timeouts: Sequence[float],
    rounds_per_run: int = 200,
    runs: int = 6,
    start_points: int = 10,
    seed: int = 0,
    linear_tolerance: float = 0.25,
) -> Recommendation:
    """Measure a network and recommend a timing model and timeout.

    Args:
        network: a factory ``network(seed=...) -> LatencyModel`` (e.g.
            :func:`repro.net.planetlab.planetlab_profile`).
        timeouts: the timeout grid to sweep (seconds).
        rounds_per_run, runs, start_points: sweep effort.
        seed: root seed.
        linear_tolerance: recommend the linear-message ◊WLM whenever its
            best decision time is within this fraction of the overall
            best (the paper's "80 ms more ... clearly well worth using").
    """
    table = measure_latency_table(network(seed=_ping_seed(seed)), pings=20)
    leader = select_leader(table)
    recommendation = Recommendation(leader=leader)

    times: dict[str, list[float]] = {m: [] for m in CANDIDATES}
    satisfaction: dict[str, list[float]] = {m: [] for m in CANDIDATES}
    for t_index, timeout in enumerate(timeouts):
        matrices_by_run = [
            timely_matrices(
                sample_latency_trace(
                    network(seed=_cell_seed(seed, t_index, run)),
                    rounds_per_run,
                    timeout,
                ),
                timeout,
            )
            for run in range(runs)
        ]
        for model in CANDIDATES:
            # One satisfaction vector per (run, model); P_M and the
            # decision statistics are both read off it.
            vectors = [
                satisfaction_vector(matrices, model, leader)
                for matrices in matrices_by_run
            ]
            mean_rounds = mean_decision_rounds(
                vectors,
                MODELS[model].decision_rounds,
                timeout,
                start_points,
                partial(_decision_seed, seed, t_index),
            )
            times[model].append(mean_rounds * timeout)
            satisfaction[model].append(
                float(np.mean([satisfied_fraction(v) for v in vectors]))
            )

    for model in CANDIDATES:
        finite = [
            (t, v, s)
            for t, v, s in zip(timeouts, times[model], satisfaction[model])
            if v == v
        ]
        if finite:
            ts, vs, ss = zip(*finite)
            best_t, best_v = optimal_timeout(list(ts), list(vs))
            best_s = ss[list(ts).index(best_t)]
        else:
            best_t = best_v = best_s = float("nan")
        recommendation.reports[model] = ModelReport(
            model=model,
            optimal_timeout=best_t,
            best_decision_time=best_v,
            satisfaction_at_best=best_s,
            message_complexity=MODELS[model].stable_message_complexity,
        )

    decided = {
        m: r
        for m, r in recommendation.reports.items()
        if r.best_decision_time == r.best_decision_time
    }
    if not decided:
        recommendation.rationale = "no model produced decisions on this sweep"
        return recommendation
    overall_best = min(decided.values(), key=lambda r: r.best_decision_time)
    wlm = decided.get("WLM")
    if (
        wlm is not None
        and wlm.best_decision_time
        <= overall_best.best_decision_time * (1 + linear_tolerance)
    ):
        recommendation.chosen_model = "WLM"
        recommendation.chosen_timeout = wlm.optimal_timeout
        overhead = (
            wlm.best_decision_time / overall_best.best_decision_time - 1
        ) * 100
        recommendation.rationale = (
            f"within {overhead:.0f}% of the fastest model "
            f"({overall_best.model}) while sending O(n) instead of O(n²) "
            f"messages per round"
        )
    else:
        recommendation.chosen_model = overall_best.model
        recommendation.chosen_timeout = overall_best.optimal_timeout
        recommendation.rationale = (
            "fastest measured decision time; the linear-message WLM "
            "exceeded the tolerance on this network"
        )
    return recommendation
