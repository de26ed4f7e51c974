"""Regeneration of every panel of the paper's Figure 1.

Panels (a)-(b) are analytic (Section 4.2); panels (c)-(i) are measured
(Section 5).  Each function returns a :class:`FigureSeries` — the x grid
plus named y series — which :mod:`repro.experiments.report` renders as the
text tables recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Sequence

import numpy as np

from repro.analysis.equations import P_MODEL, expected_decision_rounds
from repro.analysis.stats import summarize
from repro.experiments.cache import (
    cached_timely,
    cached_trace,  # unused here; the benchmark ledger's tracer patches it
)
from repro.experiments.config import (
    MEASURED_MODELS,
    SweepConfig,
    QUICK,
    QUICK_LAN,
)
from repro.experiments.decision import (
    decision_stats,  # unused here; the benchmark ledger's tracer patches it
    mean_over_deciding_runs,
    run_starts,
)
from repro.experiments.measurement import (
    measured_p,
    model_satisfaction,  # unused here; the benchmark ledger's tracer patches it
    satisfaction_vector,
    satisfied_fractions,
    timely_matrices,  # unused here; the benchmark ledger's tracer patches it
)
from repro.models.registry import get_model
from repro.net.lan import AVERAGE_LEADER, GOOD_LEADER
from repro.net.planetlab import LEADER_NODE


@dataclass
class FigureSeries:
    """One figure's data: an x grid and named y series."""

    figure: str
    x_label: str
    x: list[float]
    series: dict[str, list[float]] = field(default_factory=dict)
    notes: str = ""


# ----------------------------------------------------------------------
# Shared sweep data for the measured figures.
# ----------------------------------------------------------------------
@dataclass
class WanRun:
    """One run at one timeout — a WAN or LAN cell, or one of the model
    selector's runs: its measured p and delivery matrices."""

    p: float
    matrices: np.ndarray

    @classmethod
    def of(cls, matrices: np.ndarray) -> "WanRun":
        """The run whose timely graphs are ``matrices``; its p is counted
        off them (:func:`~repro.experiments.measurement.measured_p`)."""
        return cls(measured_p(matrices), matrices)


@dataclass
class WanSweep:
    """All runs of a sweep, grouped by timeout.

    Figures 1(c) and 1(e)-(i), the model selector and the faults table
    ask the same questions of a sweep's runs — which rounds of a run
    satisfy a model, what fraction that is, how many rounds its
    decisions take — so the sweep answers each once, on first use
    (:meth:`satisfied`, :meth:`per_run_pm`, :meth:`decision_rounds`),
    one pass per timeout: a timeout's runs are stacked once and every
    measured model is evaluated on that stack, and each run's decision
    start points are drawn once for all models.  The answers are kept
    beside ``runs``.  They are derived data: not compared, not printed,
    and not on :class:`WanRun`, which is what the process pool and the
    service ship.  Fill ``runs`` before drawing figures from the sweep.
    """

    config: SweepConfig
    leader: int
    runs: dict[float, list[WanRun]] = field(default_factory=dict)
    #: ``(table, model[, leader])`` -> that table's rows, one per timeout
    #: (model ``""`` for the start points every model shares).
    _tables: dict[tuple, list] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def _satisfied_key(self, model: str, leader: int) -> tuple:
        """A leaderless model's table is one, whatever the leader."""
        return ("satisfied", model, leader if get_model(model).needs_leader else None)

    def satisfied(self, model: str, leader: Optional[int] = None) -> list[np.ndarray]:
        """``[t_index]``: a ``(runs, rounds)`` table whose row ``r`` is
        run ``r``'s per-round satisfaction of ``model`` (under ``leader``,
        the sweep's by default, if the model needs one).

        The first call for a measured model at a leader evaluates every
        one of :data:`MEASURED_MODELS` not yet tabled there, so each
        timeout's stack is built once per leader.
        """
        leader = self.leader if leader is None else leader
        key = self._satisfied_key(model, leader)
        if key not in self._tables:
            models = MEASURED_MODELS if model in MEASURED_MODELS else (model,)
            keys = [self._satisfied_key(name, leader) for name in models]
            tables = {key: [] for key in keys if key not in self._tables}
            for timeout in self.config.timeouts:
                runs = self.runs[timeout]
                stack = np.concatenate([run.matrices for run in runs])
                for (_, name, _), rows in tables.items():
                    vector = satisfaction_vector(stack, name, leader)
                    rows.append(vector.reshape(len(runs), -1))
            self._tables.update(tables)
        return self._tables[key]

    def per_run_pm(self, model: str) -> list[list[float]]:
        """``[t_index][r_index]``: the run's ``P_M``, counted from its
        first satisfying round (the Section 5.3 protocol)."""
        key = ("pm", model)
        if key not in self._tables:
            self._tables[key] = [
                satisfied_fractions(rows, skip_until_first_stable=True).tolist()
                for rows in self.satisfied(model)
            ]
        return self._tables[key]

    def start_points(self) -> list[np.ndarray]:
        """``[t_index]``: a ``(runs, start_points)`` table of each run's
        decision start points, shared by every model.

        A distinct hashed purpose, not run_seed + offset: additive
        offsets can collide with another cell's trace stream.
        """
        key = ("starts", "")
        if key not in self._tables:
            config = self.config
            self._tables[key] = [
                run_starts(
                    partial(config.run_seed, t_index, purpose="decision"),
                    len(self.runs[timeout]),
                    config.rounds_per_run,
                    config.start_points,
                )
                for t_index, timeout in enumerate(config.timeouts)
            ]
        return self._tables[key]

    def decision_rounds(self, model: str) -> list[float]:
        """``[t_index]``: mean rounds to global decision under ``model``,
        averaged over the runs that decided at all (NaN when none did)."""
        key = ("rounds", model)
        if key not in self._tables:
            window = get_model(model).decision_rounds
            self._tables[key] = [
                mean_over_deciding_runs(rows, window, starts)
                for rows, starts in zip(
                    self.satisfied(model), self.start_points()
                )
            ]
        return self._tables[key]


def _cell(
    profile: str, purpose: str, config: SweepConfig, t_index: int, r_index: int
) -> WanRun:
    """One independent (timeout, run) cell of a ``profile`` sweep.

    The cell is a pure function of its arguments — it derives its own
    seed and samples (or cache-loads) its own timely graphs — so the
    serial and parallel engines produce bit-identical sweeps by
    construction: both just map it over the cell grid.
    """
    timeout = config.timeouts[t_index]
    seed = config.run_seed(t_index, r_index, purpose=purpose)
    return WanRun.of(
        cached_timely(profile, config.n, config.rounds_per_run, timeout, seed)
    )


def wan_cell(config: SweepConfig, t_index: int, r_index: int) -> WanRun:
    """One (timeout, run) cell of the WAN sweep (see :func:`_cell`)."""
    return _cell("wan", "trace", config, t_index, r_index)


def lan_cell(config: SweepConfig, t_index: int, r_index: int) -> WanRun:
    """One (timeout, run) cell of the LAN measurement (see :func:`_cell`).

    Its trace seed names the profile: the LAN and WAN sweeps share a root
    seed, and a LAN cell must not draw the latencies of the WAN cell with
    the same indices.
    """
    return _cell("lan", "lan:trace", config, t_index, r_index)


def run_wan_sweep(config: SweepConfig = QUICK, leader: int = LEADER_NODE) -> WanSweep:
    """Execute the WAN measurement protocol of Section 5.3.

    For each timeout, ``config.runs`` independent runs of
    ``config.rounds_per_run`` synchronized rounds over fresh instances of
    the synthetic PlanetLab network.  (See
    :func:`repro.experiments.parallel.run_wan_sweep_parallel` for the
    multi-process engine; it yields identical results.)
    """
    sweep = WanSweep(config=config, leader=leader)
    for t_index in range(len(config.timeouts)):
        sweep.runs[config.timeouts[t_index]] = [
            wan_cell(config, t_index, r_index)
            for r_index in range(config.runs)
        ]
    return sweep


# ----------------------------------------------------------------------
# Figure 1(a) and 1(b): analytic E(D) versus p, n = 8.
# ----------------------------------------------------------------------
def figure_1a(
    n: int = 8, p_grid: Optional[Sequence[float]] = None
) -> FigureSeries:
    """Expected decision rounds at very high p (paper Figure 1(a)).

    Shape: ES deteriorates drastically as p leaves 1.0; AFM/LM/direct-WLM
    stay excellent; simulated WLM trails the direct algorithm.
    """
    if p_grid is None:
        p_grid = np.linspace(0.986, 1.0, 29)
    x = [float(p) for p in p_grid]
    result = FigureSeries(
        figure="1a", x_label="p (probability of timely delivery)", x=x
    )
    for model in ("ES", "AFM", "LM", "WLM", "WLM_SIM"):
        result.series[model] = [
            float(expected_decision_rounds(p, n, model)) for p in x
        ]
    return result


def figure_1b(
    n: int = 8, p_grid: Optional[Sequence[float]] = None
) -> FigureSeries:
    """Expected decision rounds for p in [0.9, 1) (paper Figure 1(b)).

    ES is omitted, as in the paper (it is off the chart: 349 rounds at
    p = 0.97).  Shape: AFM best at low p; LM overtakes around p = 0.96 and
    direct WLM around p = 0.97; simulated WLM is far worse than direct.
    """
    if p_grid is None:
        p_grid = np.linspace(0.90, 0.999, 34)
    x = [float(p) for p in p_grid]
    result = FigureSeries(figure="1b", x_label="p", x=x)
    for model in ("AFM", "LM", "WLM", "WLM_SIM"):
        result.series[model] = [
            float(expected_decision_rounds(p, n, model)) for p in x
        ]
    return result


# ----------------------------------------------------------------------
# Figure 1(c): LAN — measured versus IID-predicted P_M per timeout.
# ----------------------------------------------------------------------
#: Figure 1(c)'s measured series: ``(name, model, leader)``.
LAN_SERIES = tuple(
    (f"measured_{model}", model, GOOD_LEADER) for model in MEASURED_MODELS
) + (
    ("measured_WLM_avg_leader", "WLM", AVERAGE_LEADER),
    ("measured_LM_avg_leader", "LM", AVERAGE_LEADER),
)


def figure_1c(
    config: SweepConfig = QUICK_LAN,
    cells: Optional[Sequence[Sequence[WanRun]]] = None,
) -> FigureSeries:
    """LAN measurement (paper Figure 1(c)).

    Shape targets from Section 5.2: ES hard to satisfy but better than the
    IID prediction (late messages concentrate in few rounds); AFM and LM
    worse than predicted (the occasionally slow node); leader-based models
    with the *good* leader far better than predicted, with WLM best of
    all; with an *average* leader, WLM/LM need much larger timeouts than
    AFM.

    ``cells`` may supply precomputed ``cells[t_index][r_index]`` results
    (the parallel engine does); when omitted each cell is computed here.
    The series are read from a :class:`WanSweep` over the cells: six
    predicate calls per timeout, four at the good leader and the two
    leader-based models at the average one; a point is the mean of the
    runs' ``P_M``.
    """
    sweep = WanSweep(config=config, leader=GOOD_LEADER)
    for t_index, timeout in enumerate(config.timeouts):
        sweep.runs[timeout] = (
            [lan_cell(config, t_index, r_index) for r_index in range(config.runs)]
            if cells is None
            else list(cells[t_index])
        )
    x = [float(t) for t in config.timeouts]
    result = FigureSeries(figure="1c", x_label="timeout (s)", x=x)
    measured = {
        name: [
            float(np.mean(satisfied_fractions(rows)))
            for rows in sweep.satisfied(model, leader)
        ]
        for name, model, leader in LAN_SERIES
    }
    p_hats = [float(np.mean([run.p for run in sweep.runs[t]])) for t in x]
    # The paper's legend order: measured and predicted, then the
    # average-leader curves.
    for model in MEASURED_MODELS:
        result.series[f"measured_{model}"] = measured.pop(f"measured_{model}")
    for model in MEASURED_MODELS:
        result.series[f"predicted_{model}"] = [
            float(P_MODEL[model](p_hat, config.n)) for p_hat in p_hats
        ]
    result.series.update(measured)
    result.notes = (
        f"good leader = node {GOOD_LEADER}, "
        f"average leader = node {AVERAGE_LEADER}"
    )
    return result


# ----------------------------------------------------------------------
# Figure 1(d): WAN — timeout to measured p.
# ----------------------------------------------------------------------
def figure_1d(sweep: WanSweep) -> FigureSeries:
    """Fraction of timely messages per timeout (paper Figure 1(d)).

    Landmarks in the paper: 160 ms -> ~0.88, 170 ms -> ~0.90,
    200 ms -> ~0.95, 210 ms -> ~0.96.
    """
    x = [float(t) for t in sweep.config.timeouts]
    result = FigureSeries(figure="1d", x_label="timeout (s)", x=x)
    result.series["p"] = [
        float(np.mean([run.p for run in sweep.runs[t]])) for t in x
    ]
    return result


# ----------------------------------------------------------------------
# Figure 1(e)/(f): WAN — P_M with confidence intervals; variance.
# ----------------------------------------------------------------------
def figure_1e(sweep: WanSweep) -> FigureSeries:
    """Measured P_M with 95% confidence intervals (paper Figure 1(e)).

    Shape targets: WLM's conditions hold far more often than the others
    (paper at 160 ms: P_ES = 0, P_AFM ~ 0.4, P_LM ~ 0.79, P_WLM ~ 0.94);
    ES confidence intervals *grow* with the timeout while the others
    shrink.
    """
    x = [float(t) for t in sweep.config.timeouts]
    result = FigureSeries(figure="1e", x_label="timeout (s)", x=x)
    for model in MEASURED_MODELS:
        means, lows, highs = [], [], []
        for per_run in sweep.per_run_pm(model):
            summary = summarize(per_run)
            means.append(summary.mean)
            lows.append(summary.ci_low)
            highs.append(summary.ci_high)
        result.series[model] = means
        result.series[f"{model}_ci_low"] = lows
        result.series[f"{model}_ci_high"] = highs
    return result


def figure_1f(sweep: WanSweep) -> FigureSeries:
    """Variance of the per-run P_M values (paper Figure 1(f)).

    Shape targets: LM has high variance at short timeouts (the slow
    Poland node hurts some runs badly); AFM's incidence is consistently
    low there (low variance); ES variance grows with the timeout.
    """
    x = [float(t) for t in sweep.config.timeouts]
    result = FigureSeries(figure="1f", x_label="timeout (s)", x=x)
    for model in MEASURED_MODELS:
        result.series[model] = [
            summarize(per_run).variance
            for per_run in sweep.per_run_pm(model)
        ]
    return result


# ----------------------------------------------------------------------
# Figure 1(g)/(h)/(i): WAN — rounds and time to global decision.
# ----------------------------------------------------------------------
def _decision_times(sweep: WanSweep, model: str) -> list[float]:
    """Mean time to global decision per timeout: each round lasts the
    timeout."""
    return [
        rounds * timeout
        for rounds, timeout in zip(
            sweep.decision_rounds(model), sweep.config.timeouts
        )
    ]


def figure_1g(sweep: WanSweep) -> FigureSeries:
    """Average rounds to global decision per model (paper Figure 1(g))."""
    x = [float(t) for t in sweep.config.timeouts]
    result = FigureSeries(figure="1g", x_label="timeout (s)", x=x)
    for model in MEASURED_MODELS:
        result.series[model] = list(sweep.decision_rounds(model))
    return result


def figure_1h(sweep: WanSweep) -> FigureSeries:
    """Average time to global decision per model (paper Figure 1(h)).

    Shape targets: WLM fastest at low timeouts; comparable to LM from
    ~180 ms; AFM slower than both below ~230 ms.
    """
    x = [float(t) for t in sweep.config.timeouts]
    result = FigureSeries(figure="1h", x_label="timeout (s)", x=x)
    for model in MEASURED_MODELS:
        result.series[model] = _decision_times(sweep, model)
    return result


def figure_1i(sweep: WanSweep) -> FigureSeries:
    """The timeout/decision-time tradeoff for LM and WLM (Figure 1(i)).

    The curve is convex: short timeouts need more rounds, long timeouts
    make every round expensive.  The paper reads optima of ~170 ms (WLM,
    ~730 ms decision time) and ~210 ms (LM, ~650 ms).
    """
    x = [float(t) for t in sweep.config.timeouts]
    result = FigureSeries(figure="1i", x_label="timeout (s)", x=x)
    for model in ("LM", "WLM"):
        values = result.series[model] = _decision_times(sweep, model)
        finite = [
            (t, v) for t, v in zip(x, values) if v == v  # drop NaNs
        ]
        if finite:
            best_t, best_v = min(finite, key=lambda pair: pair[1])
            result.notes += (
                f"{model}: optimal timeout {best_t * 1000:.0f} ms "
                f"(decision time {best_v * 1000:.0f} ms). "
            )
    return result


# ----------------------------------------------------------------------
# Figure 1(j) and 1(k): the post-paper scenario families.
# ----------------------------------------------------------------------
def figure_1j(
    n: int = 8, p_grid: Optional[Sequence[float]] = None
) -> FigureSeries:
    """Analytic E(D) versus p with Granular Synchrony alongside (1(b)'s
    range, extended).

    GS's ``P_GS = p^g`` constrains only the g guaranteed links of the
    canonical hub matrix (43 of 64 at n = 8) instead of ES's all n², so
    its curve sits strictly between ES and the leader-based models: it
    needs no leader election, yet tolerates every async link failing.
    """
    from repro.models.properties import granular_link_count

    if p_grid is None:
        p_grid = np.linspace(0.90, 0.999, 34)
    x = [float(p) for p in p_grid]
    result = FigureSeries(figure="1j", x_label="p", x=x)
    for model in ("ES", "GS", "AFM", "LM", "WLM"):
        result.series[model] = [
            float(expected_decision_rounds(p, n, model)) for p in x
        ]
    result.notes = (
        f"GS constrains {granular_link_count(n)} of {n * n} links "
        "(canonical hub matrix); 3-round decisions with no leader election."
    )
    return result


def figure_1k(
    n: int = 8,
    p: float = 0.97,
    gsr_grid: Optional[Sequence[int]] = None,
    models: Sequence[str] = ("GS", "WLM"),
    runs: int = 120,
    seed: int = 0,
) -> FigureSeries:
    """Decision round versus stabilization round (GSR) under the
    eventually stabilizing message adversary.

    For each GSR the simulated mean global-decision round is plotted
    against the composition prediction ``(GSR - 1) + E[T_c(P_M)]``: the
    adversary delays every model by exactly its stabilization time, and
    from GSR on each model pays only its clean-network run length.
    """
    from repro.analysis.stabilization import (
        predicted_decision_round,
        simulate_adversary_decision_rounds,
    )
    from repro.faults.adversary import StabilityWindowAdversary

    if gsr_grid is None:
        gsr_grid = (10, 18, 26, 34)
    x = [float(g) for g in gsr_grid]
    result = FigureSeries(
        figure="1k", x_label="stabilization round (GSR)", x=x
    )
    for model in models:
        p_m = float(P_MODEL[model](p, n))
        simulated = []
        predicted = []
        for gsr in gsr_grid:
            adversary = StabilityWindowAdversary(n=n, gsr_round=int(gsr))
            rounds = simulate_adversary_decision_rounds(
                adversary, p, model, runs=runs, seed=seed, leader=0
            )
            simulated.append(float(rounds.mean()))
            predicted.append(predicted_decision_round(adversary, p_m, model))
        result.series[f"{model} measured"] = simulated
        result.series[f"{model} predicted"] = predicted
    result.notes = (
        f"p = {p}, {runs} runs per point; prediction = (GSR - 1) + exact "
        "run-length expectation at the model's clean-network P_M."
    )
    return result
