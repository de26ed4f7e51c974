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

import numpy as np

from repro.analysis.equations import DECISION_ROUNDS
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
    # One draw consumes the generator exactly as ``samples`` (n, n) draws
    # would.  The self-link assumption stays OUT, as in the paper's
    # analysis; the predicates tolerate an arbitrary diagonal.
    matrices = np.random.default_rng(seed).random((samples, n, n)) < p
    hits = get_model(model).satisfied_batch(matrices, leader=leader).sum()
    return int(hits) / samples


def estimate_decision_rounds(
    model: str,
    p: float,
    n: int,
    runs: int = 2_000,
    seed: int = 0,
) -> float:
    """Average round at which the model's ``window`` of consecutive
    satisfying rounds (:data:`DECISION_ROUNDS`) first completes, over
    ``runs`` independent IID round sequences, under leader 0.

    This is the Monte-Carlo ``E(D_M)``.  Runs that do not stabilize within
    ``max_rounds`` (2 000 000) contribute ``max_rounds`` (a lower bound on
    the truth — only relevant for tiny ``P_M``).
    """
    registry_model = get_model(model)
    leader, max_rounds = 0, 2_000_000
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
