"""Monte-Carlo validation of the Section 4 closed forms.

Two estimators:

- :func:`estimate_p_model` — sample IID round matrices and count the
  fraction satisfying a model's predicate; converges to the closed-form
  ``P_M`` (exactly for ES/LM/WLM; bounded below by equation (9) for AFM,
  whose closed form ignores the row/column dependence).
- :func:`estimate_decision_rounds` — sample round *sequences* and measure
  the first completion of ``c`` consecutive satisfying rounds, i.e. the
  measured analogue of ``E(D_M)``; converges to the exact run-length
  expectation (and hence close to, but not exactly, the paper's
  ``1/P^c + (c-1)`` approximation).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.analysis.equations import DECISION_ROUNDS
from repro.models.matrix import iid_matrix
from repro.models.registry import get_model


def estimate_p_model(
    model: str,
    p: float,
    n: int,
    samples: int = 10_000,
    leader: int = 0,
    seed: int = 0,
) -> float:
    """Fraction of ``samples`` IID matrices satisfying ``model``.

    Note: following the paper's analysis, the diagonal is *not* treated
    specially here — "we do not treat a process' link with itself
    differently than other links" — so entries are sampled for all n²
    positions.
    """
    registry_model = get_model(model)
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(samples):
        matrix = rng.random((n, n)) < p
        # Keep the self-link assumption OUT, as in the paper's analysis;
        # the predicate helpers tolerate an arbitrary diagonal.
        if registry_model.satisfied(matrix, leader=leader):
            hits += 1
    return hits / samples


def estimate_decision_rounds(
    model: str,
    p: float,
    n: int,
    runs: int = 2_000,
    leader: int = 0,
    seed: int = 0,
    max_rounds: int = 2_000_000,
    window: Optional[int] = None,
) -> float:
    """Average round at which ``window`` consecutive satisfying rounds
    first complete, over ``runs`` independent IID round sequences.

    This is the Monte-Carlo ``E(D_M)``.  Runs that do not stabilize within
    ``max_rounds`` contribute ``max_rounds`` (a lower bound on the truth —
    only relevant for tiny ``P_M``).
    """
    registry_model = get_model(model)
    if window is None:
        window = DECISION_ROUNDS[model.upper()]
    rng = np.random.default_rng(seed)
    total = 0.0
    for _ in range(runs):
        consecutive = 0
        for round_index in range(1, max_rounds + 1):
            matrix = rng.random((n, n)) < p
            if registry_model.satisfied(matrix, leader=leader):
                consecutive += 1
                if consecutive >= window:
                    total += round_index
                    break
            else:
                consecutive = 0
        else:
            total += max_rounds
    return total / runs
