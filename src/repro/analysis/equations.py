"""The closed-form analysis of Section 4.1 (equations (1)-(10)).

Link failures are IID Bernoulli: every entry of the round matrix ``A`` is
1 with probability ``p`` independently.  For each model ``M`` the paper
derives ``P_M``, the probability that one round satisfies ``M``, and from
it the expected number of rounds to global decision::

    E(D_M) = 1 / P_M^c  +  (c - 1)                            (paper)

where ``c`` is the decision-round count of the fastest algorithm for
``M``.  The paper's formula treats "a c-window starts at round k" as an
independent trial per k — a renewal approximation.  The exact expectation
of the first completion time of ``c`` consecutive successes is::

    E[T] = (1 - P^c) / ((1 - P) * P^c)  +  ...  (standard run-length result)

both are provided (:func:`expected_rounds_paper`,
:func:`expected_rounds_exact`); they agree to within a round for the
``P`` ranges of the figures.

All functions accept scalars or numpy arrays for ``p``.
"""

from __future__ import annotations

from math import comb
from typing import Union

import numpy as np

from repro.models.properties import granular_link_count
from repro.models.registry import MODELS

ArrayLike = Union[float, np.ndarray]

#: Decision-round counts used in Section 4 — the fastest known algorithm
#: per model, read off the model registry (which says where each number
#: comes from).
DECISION_ROUNDS = {
    name: model.decision_rounds for name, model in MODELS.items()
}


def _as_array(p: ArrayLike) -> np.ndarray:
    arr = np.asarray(p, dtype=float)
    if np.any((arr < 0) | (arr > 1)):
        raise ValueError("p must lie in [0, 1]")
    return arr


def p_es(p: ArrayLike, n: int) -> ArrayLike:
    """Equation (1): ``P_ES = p^(n^2)`` — every entry of ``A`` must be 1."""
    arr = _as_array(p)
    return arr ** (n * n)


def pr_majority_given_leader(p: ArrayLike, n: int) -> ArrayLike:
    """Equation (4): ``Pr(M | L)`` — given the leader's entry of a row is 1,
    the probability that the row has more than ``n/2 - 1`` further ones
    among its remaining ``n - 1`` entries."""
    arr = _as_array(p)
    total = np.zeros_like(arr)
    for i in range(n // 2, n):
        total = total + comb(n - 1, i) * arr**i * (1 - arr) ** (n - 1 - i)
    return total


def p_lm(p: ArrayLike, n: int) -> ArrayLike:
    """Equation (3): ``P_LM = (Pr(L) * Pr(M | L))^n`` with ``Pr(L) = p``.

    Every row needs the leader's entry 1 and a majority of ones.
    """
    arr = _as_array(p)
    return (arr * pr_majority_given_leader(arr, n)) ** n


def p_wlm(p: ArrayLike, n: int) -> ArrayLike:
    """Equation (6): ``P_WLM = p^n * Pr(M | L)``.

    Only the leader's column (all ones: the leader is an n-source) and the
    leader's row (a majority of ones) are constrained.
    """
    arr = _as_array(p)
    return arr**n * pr_majority_given_leader(arr, n)


def pr_row_majority(p: ArrayLike, n: int) -> ArrayLike:
    """``Pr(X > n/2)`` — a row of ``n`` IID entries has a strict majority of
    ones (the building block of equation (9))."""
    arr = _as_array(p)
    total = np.zeros_like(arr)
    for i in range(n // 2 + 1, n + 1):
        total = total + comb(n, i) * arr**i * (1 - arr) ** (n - i)
    return total


def p_afm(p: ArrayLike, n: int) -> ArrayLike:
    """Equation (9): ``P_AFM >= Pr(X > n/2)^(2n)`` — every row and every
    column needs a strict majority of ones (the paper's lower bound)."""
    return pr_row_majority(p, n) ** (2 * n)


def p_gs(p: ArrayLike, n: int) -> ArrayLike:
    """Granular Synchrony under the canonical hub-based assumption matrix:
    ``P_GS = p^g`` where ``g`` counts the guaranteed (sync or psync)
    entries, diagonal included — the per-link analog of equation (1),
    which is the ``g = n^2`` special case."""
    arr = _as_array(p)
    return arr ** granular_link_count(n)


#: The model -> closed-form ``P_M`` table (equations (1), (3), (6), (9)
#: and ``P_GS``), keyed like :data:`DECISION_ROUNDS`.  ``WLM_SIM`` shares
#: ``P_WLM``: the Appendix B simulation changes how many rounds a
#: decision takes (equation (8)), not which rounds are good.
P_MODEL = {
    "ES": p_es,
    "LM": p_lm,
    "WLM": p_wlm,
    "WLM_SIM": p_wlm,
    "AFM": p_afm,
    "GS": p_gs,
}


def expected_rounds_paper(p_model: ArrayLike, c: int) -> ArrayLike:
    """The paper's ``E(D) = 1 / P^c + (c - 1)`` (equations (2), (5), (7),
    (8), (10))."""
    arr = np.asarray(p_model, dtype=float)
    with np.errstate(divide="ignore"):
        return 1.0 / arr**c + (c - 1)


def expected_rounds_exact(p_model: ArrayLike, c: int) -> ArrayLike:
    """Exact expected round of the first completion of ``c`` consecutive
    satisfying rounds: ``E[T] = (1 - P^c) / ((1 - P) P^c)`` for ``P < 1``,
    and ``c`` when ``P = 1``."""
    arr = np.asarray(p_model, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        exact = (1.0 - arr**c) / ((1.0 - arr) * arr**c)
    result = np.where(arr >= 1.0, float(c), exact)
    return result if result.ndim else float(result)


def expected_decision_rounds(p: ArrayLike, n: int, model: str) -> ArrayLike:
    """``E(D_M)`` for a given raw link probability ``p`` — composes the
    model's ``P_M`` with the paper's expectation formula.

    ``model`` is one of ``"ES"``, ``"LM"``, ``"WLM"``, ``"WLM_SIM"``,
    ``"AFM"``, ``"GS"``.  ``"WLM_SIM"`` shares ``P_WLM`` but needs 7
    rounds (equation (8)).
    """
    key = model.upper()
    if key not in DECISION_ROUNDS:
        raise KeyError(f"unknown model {model!r}; known: {sorted(DECISION_ROUNDS)}")
    return expected_rounds_paper(P_MODEL[key](p, n), DECISION_ROUNDS[key])
