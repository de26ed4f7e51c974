"""Minimally edit a round matrix so it satisfies a timing model.

Lockstep experiments force stability from a chosen GSR: pre-GSR rounds use
a raw sampled matrix; from GSR on, each sampled matrix is *repaired* — just
enough links flipped to timely for the model's predicate to hold.  Repair
only ever turns entries on, so satisfaction of any weaker property is
preserved (model predicates are monotone in the matrix).
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Optional

import numpy as np

from repro.models.matrix import majority, validate_matrix
from repro.models.registry import TimingModel, get_model
from repro.sim.rng import derive_seed


def _repair_row_to_majority(
    matrix: np.ndarray,
    row: int,
    maj: int,
    rng: np.random.Generator,
    columns: np.ndarray,
) -> None:
    """Turn on random entries of ``row`` (within ``columns``) until at
    least ``maj`` of those columns are on."""
    deficit = maj - int(np.count_nonzero(matrix[row, columns]))
    if deficit <= 0:
        return
    zeros = columns[~matrix[row, columns]]
    chosen = rng.choice(zeros, size=deficit, replace=False)
    matrix[row, chosen] = True


def _repair_col_to_majority(
    matrix: np.ndarray,
    col: int,
    maj: int,
    rng: np.random.Generator,
    rows: np.ndarray,
) -> None:
    """Turn on random entries of ``col`` (within ``rows``) until at least
    ``maj`` of those rows are on."""
    deficit = maj - int(np.count_nonzero(matrix[rows, col]))
    if deficit <= 0:
        return
    zeros = rows[~matrix[rows, col]]
    chosen = rng.choice(zeros, size=deficit, replace=False)
    matrix[chosen, col] = True


def repair_to_satisfy(
    matrix: np.ndarray,
    model: TimingModel | str,
    leader: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    correct: Optional[Iterable[int]] = None,
) -> np.ndarray:
    """Return a copy of ``matrix`` edited (entries turned on) to satisfy ``model``.

    Args:
        matrix: a sampled round matrix.
        model: registry key or :class:`TimingModel`.
        leader: required for leader-based models; one of the ``n`` processes.
        rng: source of randomness for choosing which links to fix.  When
            omitted, the default seed is derived from the call's own
            content (the matrix plus the model/leader/correct arguments)
            rather than a fixed constant: a shared ``default_rng(0)``
            handed every repaired round of a stability sweep the *same*
            link choices, correlating the forced links across all
            post-GSR rounds.  Content-derived seeding stays reproducible
            — the same call repairs the same way — while distinct rounds
            decorrelate.
        correct: the correct (never-crashing) processes.  The models'
            properties count links *from correct processes*, so in a run
            with crashes the forced links must connect correct processes —
            a dead sender's link satisfies nothing.  Defaults to everyone.
    """
    if isinstance(model, str):
        model = get_model(model)
    validate_matrix(matrix)
    if correct is not None:
        correct = sorted(set(correct))
    if rng is None:
        digest = hashlib.sha256(
            np.ascontiguousarray(matrix).tobytes()
        ).hexdigest()
        live_key = "all" if correct is None else ",".join(map(str, correct))
        name = f"repair:{digest}:{model.name}:{leader}:{live_key}"
        rng = np.random.default_rng(derive_seed(0, name))

    repaired = matrix.copy()
    n = repaired.shape[0]
    if leader is not None and not 0 <= leader < n:
        raise ValueError(f"leader {leader} out of range for n={n}")
    maj = majority(n)
    if correct is None:
        live = np.arange(n)
    else:
        live = np.asarray(correct, dtype=int)
        if live.size < maj:
            raise ValueError(
                f"cannot satisfy a majority of {maj} with only {live.size} "
                f"correct processes"
            )

    if model.name == "ES":
        repaired[:, :] = True
        return repaired

    if model.name in ("WLM", "WLM_SIM"):
        if leader is None:
            raise ValueError(f"{model.name} repair requires a leader")
        repaired[:, leader] = True  # leader is an n-source
        _repair_row_to_majority(repaired, leader, maj, rng, live)
        return repaired

    if model.name == "LM":
        if leader is None:
            raise ValueError("LM repair requires a leader")
        repaired[:, leader] = True  # leader is an n-source
        for row in live:
            _repair_row_to_majority(repaired, row, maj, rng, live)
        return repaired

    if model.name == "GS":
        # The predicate demands every *guaranteed* link between correct
        # processes be timely — the minimal repair is exactly that set,
        # no randomness involved.
        from repro.models.properties import (
            canonical_granular_assumptions,
            granular_guaranteed,
        )

        guaranteed = granular_guaranteed(canonical_granular_assumptions(n))
        block = np.ix_(live, live)
        repaired[block] |= guaranteed[block]
        return repaired

    if model.name == "AFM":
        # Turning entries on never breaks a row/column that is already
        # satisfied, so one pass over rows then columns suffices.
        for row in live:
            _repair_row_to_majority(repaired, row, maj, rng, live)
        for col in live:
            _repair_col_to_majority(repaired, col, maj, rng, live)
        return repaired

    raise KeyError(f"no repair strategy for model {model.name}")
