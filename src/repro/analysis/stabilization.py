"""Predictions for eventually stabilizing message adversaries.

Under a :class:`~repro.faults.adversary.StabilityWindowAdversary` with
full suppression (``suppression_prob = 1``), no timing model's predicate
can hold in any pre-GSR round: suppressed rounds deliver nothing
off-diagonal, and window rounds partition the network, so the complement
of the root component never hears a quorum (and leaders never reach it).
The first possible satisfying round is therefore ``gsr_round``, and from
GSR on the run is the clean IID process of Section 4.1.  The expected
global-decision round composes the two::

    E[D | adversary] = (gsr_round - 1) + E[T_c(P_M)]

where ``E[T_c]`` is the exact run-length expectation
(:func:`~repro.analysis.equations.expected_rounds_exact`) of ``c``
consecutive satisfying rounds at the model's clean-network ``P_M``.

:func:`simulate_adversary_decision_rounds` Monte-Carlos the same
quantity by masking IID round matrices with the adversary's
:class:`~repro.faults.plan.FaultPlan`, giving the 4-sigma differential
check the tier-2 guard runs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.analysis.equations import expected_rounds_exact
from repro.faults.adversary import StabilityWindowAdversary
from repro.models.registry import get_model
from repro.sim.rng import derive_seed


def predicted_decision_round(
    adversary: StabilityWindowAdversary, p_model: float, model: str
) -> float:
    """Expected 1-based global-decision round under the adversary.

    ``p_model`` is the model's clean-network per-round satisfaction
    probability (a Section 4.1 closed form or a measured estimate).
    Exact for ``suppression_prob = 1``; an upper bound otherwise
    (leaky suppression can only let decisions happen earlier).
    """
    c = get_model(model).decision_rounds
    return float(
        adversary.gsr_round - 1 + expected_rounds_exact(float(p_model), c)
    )


def _first_decision_round(satisfied: np.ndarray, c: int) -> Optional[int]:
    """First 1-based round completing ``c`` consecutive satisfying rounds."""
    if satisfied.shape[0] < c:
        return None
    windows = np.convolve(satisfied.astype(int), np.ones(c, dtype=int), "valid")
    hits = np.nonzero(windows == c)[0]
    if hits.size == 0:
        return None
    return int(hits[0]) + c


def simulate_adversary_decision_rounds(
    adversary: StabilityWindowAdversary,
    p: float,
    model: str,
    runs: int = 200,
    seed: int = 0,
    leader: Optional[int] = None,
) -> np.ndarray:
    """Monte-Carlo 1-based decision rounds under the adversary.

    Each run samples IID(p) round matrices, masks them with the
    adversary's plan, and reports the first round completing
    ``decision_rounds`` consecutive satisfying rounds.  Runs draw from
    content-derived substreams, so the result is a pure function of the
    arguments.
    """
    record = get_model(model)
    c = record.decision_rounds
    plan = adversary.to_plan()
    n = adversary.n
    quiet = plan.quiet_after()
    masks = np.array([plan.mask(k) for k in range(1, quiet + 1)], dtype=bool)
    results = np.empty(runs, dtype=float)
    for index in range(runs):
        rng = np.random.default_rng(
            derive_seed(seed, f"stabilization:{model}:{adversary.seed}:{index}")
        )
        start = 0
        satisfied_parts: list[np.ndarray] = []
        decision: Optional[int] = None
        # Decisions arrive within tens of rounds: draw a short block and
        # double it (``random`` fills in order, so the prefix is the same).
        block = 64
        while decision is None:
            matrices = rng.random((block, n, n)) < p
            stop = min(quiet - start, block)
            if stop > 0:
                matrices[:stop] &= ~masks[start : start + stop]
            satisfied_parts.append(
                record.satisfied_batch(matrices, leader=leader)
            )
            satisfied = np.concatenate(satisfied_parts)
            decision = _first_decision_round(satisfied, c)
            start += block
            block = min(2 * block, 4096)
            if start > 10_000_000:
                raise RuntimeError(
                    f"no decision within {start} rounds (p={p}, model={model})"
                )
        results[index] = decision
    return results
