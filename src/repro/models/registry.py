"""Registry of the timing models the paper compares.

Each record ties together a model's predicate, whether it needs an
:math:`\\Omega` leader, and the number of consecutive satisfying rounds the
*fastest known algorithm* for the model needs to reach global decision —
the counts the paper uses throughout Section 4:

====================  =======  ==========================================
model                 rounds   source
====================  =======  ==========================================
ES                    3        Dutta, Guerraoui & Keidar [14]
eventual LM           3        Keidar & Shraer [19]
eventual WLM          4        this paper's Algorithm 2, stable leader
eventual WLM          5        this paper's Algorithm 2, worst case
simulated WLM         7        optimal LM algorithm over Algorithm 3
eventual AFM          5        Keidar & Shraer [19]
====================  =======  ==========================================

The registry keys are the names used by the analysis and the experiment
harness: ``"ES"``, ``"LM"``, ``"WLM"``, ``"WLM_SIM"``, ``"AFM"``.
``"WLM_SIM"`` shares WLM's predicate; only the round count differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from repro.models.properties import (
    GS_HUB,
    batch_satisfies_afm,
    batch_satisfies_es,
    batch_satisfies_gs,
    batch_satisfies_lm,
    batch_satisfies_wlm,
    satisfies_afm,
    satisfies_es,
    satisfies_gs,
    satisfies_lm,
    satisfies_wlm,
)


@dataclass(frozen=True)
class TimingModel:
    """Metadata for one timing model.

    Attributes:
        name: registry key.
        display_name: name used in reports/figures.
        decision_rounds: consecutive satisfying rounds needed for global
            decision by the fastest algorithm for this model.
        needs_leader: whether the predicate takes a leader argument.
        stable_message_complexity: ``"linear"`` or ``"quadratic"`` — the
            per-round stable-state message complexity of the algorithm.
        hub: for granular models, the statically designated process whose
            outgoing links are sync.  The hub plays the leader role in the
            model's algorithm without requiring an Omega oracle, so
            selection machinery should aim the leader at it.  ``None`` for
            the paper's uniform models.
    """

    name: str
    display_name: str
    decision_rounds: int
    needs_leader: bool
    stable_message_complexity: str
    _predicate: Callable[..., bool]
    _batch_predicate: Callable[..., np.ndarray]
    hub: Optional[int] = None

    def satisfied(
        self,
        matrix: np.ndarray,
        leader: Optional[int] = None,
        correct: Optional[Iterable[int]] = None,
    ) -> bool:
        """Does this round matrix satisfy the model?"""
        if self.needs_leader:
            if leader is None:
                raise ValueError(f"model {self.name} requires a leader")
            return self._predicate(matrix, leader, correct)
        return self._predicate(matrix, correct)

    def satisfied_batch(
        self,
        matrices: np.ndarray,
        leader: Optional[int] = None,
        correct: Optional[Iterable[int]] = None,
    ) -> np.ndarray:
        """Per-round satisfaction over a ``(rounds, n, n)`` stack —
        bit-identical to mapping :meth:`satisfied` over the rounds."""
        matrices = np.asarray(matrices)
        if self.needs_leader:
            if leader is None:
                raise ValueError(f"model {self.name} requires a leader")
            return self._batch_predicate(matrices, leader, correct)
        return self._batch_predicate(matrices, correct)


MODELS: dict[str, TimingModel] = {
    "ES": TimingModel(
        name="ES",
        display_name="ES",
        decision_rounds=3,
        needs_leader=False,
        stable_message_complexity="quadratic",
        _predicate=satisfies_es,
        _batch_predicate=batch_satisfies_es,
    ),
    "LM": TimingModel(
        name="LM",
        display_name="◊LM",
        decision_rounds=3,
        needs_leader=True,
        stable_message_complexity="quadratic",
        _predicate=satisfies_lm,
        _batch_predicate=batch_satisfies_lm,
    ),
    "WLM": TimingModel(
        name="WLM",
        display_name="◊WLM",
        decision_rounds=4,
        needs_leader=True,
        stable_message_complexity="linear",
        _predicate=satisfies_wlm,
        _batch_predicate=batch_satisfies_wlm,
    ),
    "WLM_SIM": TimingModel(
        name="WLM_SIM",
        display_name="simulated ◊WLM",
        decision_rounds=7,
        needs_leader=True,
        stable_message_complexity="quadratic",
        _predicate=satisfies_wlm,
        _batch_predicate=batch_satisfies_wlm,
    ),
    "AFM": TimingModel(
        name="AFM",
        display_name="◊AFM",
        decision_rounds=5,
        needs_leader=False,
        stable_message_complexity="quadratic",
        _predicate=satisfies_afm,
        _batch_predicate=batch_satisfies_afm,
    ),
    # Granular Synchrony (arxiv 2408.12853) with the canonical hub-based
    # assumption matrix: the hub's outgoing links are sync and every
    # process has psync incoming links from its n//2 ring predecessors.
    # A satisfying round is an eventual-LM round with the statically
    # known hub as leader, so the 3-round LM algorithm [19] decides in
    # 3 consecutive satisfying rounds — no Omega wait, the assumption
    # matrix is the leader certificate.
    "GS": TimingModel(
        name="GS",
        display_name="granular",
        decision_rounds=3,
        needs_leader=False,
        stable_message_complexity="quadratic",
        _predicate=satisfies_gs,
        _batch_predicate=batch_satisfies_gs,
        hub=GS_HUB,
    ),
}

#: Number of rounds Algorithm 2 needs when the leader is NOT stable a round
#: early (Theorem 10(a)): 5 instead of 4.
WLM_WORST_CASE_ROUNDS = 5


def get_model(name: str) -> TimingModel:
    """Look up a model by registry key (case-insensitive)."""
    key = name.upper()
    if key not in MODELS:
        raise KeyError(f"unknown timing model {name!r}; known: {sorted(MODELS)}")
    return MODELS[key]


def model_names() -> list[str]:
    """All registry keys: the paper's models in presentation order, then
    the post-paper extensions."""
    return ["ES", "LM", "WLM", "WLM_SIM", "AFM", "GS"]
