"""The online timeliness-graph extractor.

A live deployment never sees the paper's measurement sweep; what it does
see, round after round, is which messages arrived and (for heartbeat-style
probes) how long they took.  :class:`TimelinessExtractor` folds that
stream into a sliding window of per-link latency observations and answers
the selection question online: for every candidate (model, timeout) pair,
how often did the window's rounds satisfy the model's conditions, and
what decision time does that imply?

Two feeds, both replay-safe:

- :meth:`observe_latencies` takes a round's latency matrix (seconds;
  ``inf`` = not seen), censored at the extractor's horizon — the
  heartbeat-probe view.  Re-observing a round merges by element-wise
  minimum, so replays and out-of-order delivery can only *confirm*
  timeliness, mirroring :class:`repro.oracles.omega.HeartbeatOmega`'s
  monotone freshness map.
- :meth:`observe` / :meth:`on_round_matrix` take a boolean delivery
  matrix at the currently running timeout — the exact seam the lockstep
  runner feeds oracles and observers.  A delivery confirms latency
  ``<= running timeout`` for that link, an upper bound merged the same
  way.

Decision-time estimates compose the measured window satisfaction ``P_M``
with the exact run-length expectation
(:func:`repro.analysis.equations.expected_rounds_exact`): the expected
round of the first ``c`` consecutive satisfying rounds, times the
timeout.  A pair whose conditions never held in the window gets ``nan``
— which is why :func:`repro.analysis.crossover.optimal_timeout` must be
NaN-aware; the extractor feeds it live, unguarded window data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.analysis.crossover import optimal_timeout
from repro.analysis.equations import expected_rounds_exact
from repro.experiments.measurement import timely_matrices
from repro.models.registry import MODELS
from repro.obs.registry import MetricsRegistry, registry_or_null

#: Models the extractor classifies, in presentation order.  GS sits
#: before LM deliberately: a granular round is an LM round with the hub
#: as leader, so the two often tie on expected time, and
#: :meth:`TimelinessExtractor.recommend` keeps the first of a tie — the
#: model whose guarantee is per-link (and whose leader needs no
#: election) should win it.
CANDIDATES = ("ES", "AFM", "GS", "LM", "WLM")


@dataclass(frozen=True)
class ModelEstimate:
    """One (model, timeout) cell of the extractor's live classification.

    Attributes:
        model: registry key.
        timeout: round timeout the estimate is for (seconds).
        leader: leader the leader-based conditions were evaluated with
            (``None`` for leaderless models; granular models report
            their static hub so the policy can aim Ω at it).
        satisfaction: fraction of window rounds satisfying the model.
        holds: did the model's conditions hold in *every* window round —
            the online analogue of "the model currently holds"?
        expected_time: estimated seconds to global decision
            (``nan`` when the conditions never held in the window).
    """

    model: str
    timeout: float
    leader: Optional[int]
    satisfaction: float
    holds: bool
    expected_time: float


class TimelinessExtractor:
    """Sliding-window timeliness graph and online model classification."""

    def __init__(
        self,
        n: int,
        timeouts: Sequence[float],
        window: int = 40,
        min_rounds: int = 10,
        horizon: Optional[float] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if n < 2:
            raise ValueError("a timeliness graph needs at least 2 nodes")
        if not timeouts:
            raise ValueError("need at least one candidate timeout")
        if window < 1 or min_rounds < 1 or min_rounds > window:
            raise ValueError("need 1 <= min_rounds <= window")
        self.n = n
        self.timeouts = tuple(sorted(float(t) for t in timeouts))
        self.window = window
        self.min_rounds = min_rounds
        #: Latencies at or above the horizon are censored to ``inf`` — a
        #: probe outstanding longer than any candidate timeout carries no
        #: information the classification can use.
        self.horizon = (
            float(horizon) if horizon is not None else 1.5 * self.timeouts[-1]
        )
        #: The timeout the observed run currently uses; whoever drives the
        #: run (the policy, the live loop) keeps it current.  It bounds the
        #: latency of every link :meth:`observe` sees delivered.
        self.running_timeout: float = self.timeouts[0]
        # round -> latency matrix, merged monotonically (element-wise min).
        self._rounds: dict[int, np.ndarray] = {}
        self._metrics = registry_or_null(metrics)
        self._window_gauge = self._metrics.gauge("adaptive.window_rounds")
        self._observed = self._metrics.counter("adaptive.rounds_observed")

    # ------------------------------------------------------------------
    # Feeds.
    # ------------------------------------------------------------------
    def observe_latencies(
        self, round_number: int, latencies: np.ndarray
    ) -> None:
        """Fold one round's latency matrix (``[dst, src]``) into the window."""
        latencies = np.asarray(latencies, dtype=float)
        if latencies.shape != (self.n, self.n):
            raise ValueError("latency matrix has wrong shape")
        censored = np.where(latencies < self.horizon, latencies, np.inf)
        np.fill_diagonal(censored, 0.0)
        self._merge(round_number, censored)

    def observe(self, round_number: int, delivered: np.ndarray) -> None:
        """One round's boolean delivery matrix, as :class:`HeartbeatOmega`
        observes it.

        ``running_timeout`` — set via :attr:`running_timeout` or defaulted
        to the smallest candidate — bounds each delivered link's latency
        from above; undelivered links contribute nothing (the message may
        merely be late, not lost).
        """
        delivered = np.asarray(delivered, dtype=bool)
        if delivered.shape != (self.n, self.n):
            raise ValueError("delivery matrix has wrong shape")
        latencies = np.where(delivered, float(self.running_timeout), np.inf)
        np.fill_diagonal(latencies, 0.0)
        self._merge(round_number, latencies)

    # The runner's observer spelling of the same feed.
    def on_round_matrix(self, round_number: int, delivered: np.ndarray) -> None:
        self.observe(round_number, delivered)

    def _merge(self, round_number: int, latencies: np.ndarray) -> None:
        known = self._rounds.get(round_number)
        if known is None:
            self._rounds[round_number] = latencies.copy()
            self._observed.inc()
        else:
            np.minimum(known, latencies, out=known)
        if len(self._rounds) > self.window:
            for stale in sorted(self._rounds)[: len(self._rounds) - self.window]:
                del self._rounds[stale]
        self._window_gauge.set(len(self._rounds))

    # ------------------------------------------------------------------
    # The timeliness graph.
    # ------------------------------------------------------------------
    @property
    def rounds_seen(self) -> int:
        return len(self._rounds)

    @property
    def ready(self) -> bool:
        """Enough window to classify from?"""
        return self.rounds_seen >= self.min_rounds

    def _window_trace(self) -> np.ndarray:
        return np.array([self._rounds[k] for k in sorted(self._rounds)])

    def link_timeliness(self, timeout: float) -> np.ndarray:
        """``[dst, src]`` fraction of window rounds the link met ``timeout``
        — the timeliness graph at one timeout (diagonal is 1)."""
        if not self._rounds:
            return np.full((self.n, self.n), np.nan)
        trace = self._window_trace()
        graph = (trace < timeout).mean(axis=0)
        np.fill_diagonal(graph, 1.0)
        return graph

    def best_leader(self, timeout: float) -> int:
        """The strongest n-source candidate at ``timeout``.

        Every leader-based condition requires the leader's column timely
        to *all* destinations, so the natural online leader is the node
        whose worst outgoing link is most often timely (ties to the
        smallest id, like Ω)."""
        graph = self.link_timeliness(timeout)
        if np.isnan(graph).any():
            return 0
        off = ~np.eye(self.n, dtype=bool)
        bottleneck = np.array(
            [graph[:, src][off[:, src]].min() for src in range(self.n)]
        )
        return int(np.argmax(bottleneck))

    # ------------------------------------------------------------------
    # Classification.
    # ------------------------------------------------------------------
    def estimates(self) -> list[ModelEstimate]:
        """Every (model, timeout) cell, from the current window."""
        cells: list[ModelEstimate] = []
        if not self._rounds:
            return cells
        trace = self._window_trace()
        for timeout in self.timeouts:
            matrices = timely_matrices(trace.copy(), timeout)
            leader = self.best_leader(timeout)
            for name in CANDIDATES:
                model = MODELS[name]
                leader_arg = leader if model.needs_leader else None
                satisfied = model.satisfied_batch(matrices, leader=leader_arg)
                # A granular model carries its own statically designated
                # leader: the hub.  Surface it so the policy aims Ω there.
                cell_leader = (
                    model.hub if model.hub is not None else leader_arg
                )
                p_m = float(satisfied.mean())
                if p_m > 0.0:
                    rounds = float(
                        expected_rounds_exact(p_m, model.decision_rounds)
                    )
                    expected = rounds * timeout
                else:
                    expected = float("nan")
                cells.append(
                    ModelEstimate(
                        model=name,
                        timeout=timeout,
                        leader=cell_leader,
                        satisfaction=p_m,
                        holds=bool(satisfied.all()),
                        expected_time=expected,
                    )
                )
        return cells

    def holding(self) -> dict[str, Optional[float]]:
        """Per model, the smallest timeout at which its conditions held in
        every window round (``None`` if no candidate timeout suffices) —
        "which models currently hold, and at what timeout"."""
        answer: dict[str, Optional[float]] = {name: None for name in CANDIDATES}
        for cell in self.estimates():
            if cell.holds and answer[cell.model] is None:
                answer[cell.model] = cell.timeout
        return answer

    def recommend(self) -> Optional[ModelEstimate]:
        """The cell with the best estimated decision time, or ``None``
        when no pair's conditions ever held in the window (e.g. during a
        partition) or the window is still too small.

        Per model, the timeout is chosen by the NaN-aware
        :func:`optimal_timeout` over the live window estimates.
        """
        if not self.ready:
            return None
        cells = self.estimates()
        best: Optional[ModelEstimate] = None
        for name in CANDIDATES:
            row = [cell for cell in cells if cell.model == name]
            times = [cell.expected_time for cell in row]
            if all(t != t for t in times):
                continue  # this model never held anywhere in the grid
            best_timeout, best_time = optimal_timeout(
                [cell.timeout for cell in row], times
            )
            cell = next(c for c in row if c.timeout == best_timeout)
            if best is None or best_time < best.expected_time:
                best = cell
        if best is not None:
            self._metrics.gauge(
                "adaptive.estimate_seconds", model=best.model
            ).set(best.expected_time)
        return best
