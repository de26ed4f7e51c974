"""Property test: every batched predicate (``batch_satisfies_*``, through
the registry's ``satisfied_batch``) equals its scalar predicate round by
round — for any n, with and without a ``correct`` subset, on any stack
down to the empty one.

The batched counts sum a ``uint8`` view of the booleans; from 256
senders on that accumulator would wrap, so n runs past 255 and a full
matrix there must still read a majority."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.models.registry import MODELS


@st.composite
def stacks(draw):
    n = draw(st.one_of(st.integers(2, 12), st.integers(250, 300)))
    rounds = draw(st.integers(0, 5))
    density = draw(st.sampled_from([0.5, 0.8, 0.95, 1.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    matrices = rng.random((rounds, n, n)) < density
    leader = draw(st.integers(0, n - 1))
    if draw(st.booleans()):
        correct = None
    else:
        size = draw(st.integers(1, n))
        correct = sorted(rng.choice(n, size=size, replace=False).tolist())
    return matrices, leader, correct


def assert_batch_equals_scalar(matrices, leader, correct):
    for name, model in MODELS.items():
        batched = model.satisfied_batch(matrices, leader=leader, correct=correct)
        scalar = [
            model.satisfied(matrix, leader=leader, correct=correct)
            for matrix in matrices
        ]
        assert batched.dtype == np.bool_, name
        assert batched.tolist() == scalar, name


@given(case=stacks())
@example(case=(np.ones((2, 256, 256), dtype=bool), 0, None))  # counts of 256
@example(case=(np.ones((1, 300, 300), dtype=bool), 299, list(range(1, 300))))
@example(case=(np.zeros((0, 8, 8), dtype=bool), 3, None))  # the empty stack
@example(case=(np.zeros((0, 5, 5), dtype=bool), 1, [0, 1]))
@settings(max_examples=150, deadline=None)
def test_batched_predicates_equal_the_scalar_ones_round_by_round(case):
    assert_batch_equals_scalar(*case)


def test_asymmetric_rounds_tell_sources_from_destinations():
    """Rounds where one process reaches everyone (a column) or hears
    everyone (a row), and where a majority of senders reaches everyone
    or a majority of destinations hears everyone: a count over the wrong
    axis reads another verdict."""
    n = 5
    rounds = []
    for pid in range(n):
        reaches, hears = np.eye(n, dtype=bool), np.eye(n, dtype=bool)
        reaches[:, pid] = True
        hears[pid, :] = True
        rounds += [reaches, hears]
    majority = np.eye(n, dtype=bool)
    majority[:, :3] = True  # senders 0-2 reach everyone
    rounds += [majority, majority.T.copy()]
    for leader in range(n):
        assert_batch_equals_scalar(np.array(rounds), leader, None)
        assert_batch_equals_scalar(np.array(rounds), leader, [0, 1, 3])
