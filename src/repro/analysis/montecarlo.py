"""Monte-Carlo validation of the Section 4 closed forms.

:func:`estimate_p_model` samples IID round matrices and counts the
fraction satisfying a model's predicate; it converges to the closed-form
``P_M`` (exactly for ES/LM/WLM; bounded below by equation (9) for AFM,
whose closed form ignores the row/column dependence).

The measured ``E(D_M)`` has no estimator of its own: it is
:func:`~repro.analysis.stabilization.simulate_adversary_decision_rounds`
under a ``StabilityWindowAdversary`` with ``gsr_round = 1``, whose plan
has no fault, so every run is a clean IID round sequence read by the
one window scan.  It converges to the exact run-length expectation (and
hence close to, but not exactly, the paper's ``1/P^c + (c-1)``
approximation).
"""

from __future__ import annotations

import numpy as np

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
