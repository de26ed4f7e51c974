"""Property-based tests of :class:`HeartbeatOmega`'s window accounting.

The detector has two windowed views of the same freshness map: the
suspicion accounting in :meth:`observe_rows` (``last_heard < round - W``) and
the trust selection in :meth:`trusted` (``last_heard >= round - W``).
These must stay exact complements — a one-off at the boundary (``<=`` in
one, ``>=`` in the other) would let a process be simultaneously trusted
and suspected.  The freshness map is monotone, so replayed and
out-of-order observations must never change any answer.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.oracles.omega import HeartbeatOmega


@st.composite
def observation_sequences(draw):
    """A process count, suspicion window, and (round, matrix) stream.

    Rounds may repeat and arrive out of order — the runner replays
    matrices under fault injection, and the detector documents both as
    safe.
    """
    n = draw(st.integers(min_value=2, max_value=6))
    window = draw(st.integers(min_value=1, max_value=4))
    count = draw(st.integers(min_value=1, max_value=10))
    observations = []
    for _ in range(count):
        round_number = draw(st.integers(min_value=1, max_value=12))
        bits = draw(
            st.lists(st.booleans(), min_size=n * n, max_size=n * n)
        )
        matrix = np.array(bits, dtype=bool).reshape(n, n)
        observations.append((round_number, matrix))
    return n, window, observations


def feed(n, window, observations):
    oracle = HeartbeatOmega(n, suspicion_rounds=window)
    for round_number, matrix in observations:
        oracle.observe_rows(round_number, matrix)
    return oracle


@given(data=observation_sequences(), query_round=st.integers(1, 15))
@settings(max_examples=200)
def test_suspected_iff_not_alive(data, query_round):
    n, window, observations = data
    oracle = feed(n, window, observations)
    for pid in range(n):
        alive = oracle.alive(pid, query_round)
        suspected = oracle.suspected(pid, query_round)
        assert (suspected == ~alive).all()


@given(data=observation_sequences(), query_round=st.integers(1, 15))
@settings(max_examples=200)
def test_trusted_is_min_id_alive(data, query_round):
    n, window, observations = data
    oracle = feed(n, window, observations)
    for pid in range(n):
        alive = np.flatnonzero(oracle.alive(pid, query_round))
        expected = int(alive[0]) if alive.size else pid
        assert oracle.trusted(pid, query_round) == expected


@given(data=observation_sequences())
@settings(max_examples=150)
def test_self_alive_at_last_observed_round(data):
    n, window, observations = data
    oracle = feed(n, window, observations)
    last = max(round_number for round_number, _ in observations)
    for pid in range(n):
        assert oracle.alive(pid, last)[pid]
        assert not oracle.suspected(pid, last)[pid]


@given(
    data=observation_sequences(),
    seed=st.integers(0, 2**16),
    query_round=st.integers(1, 15),
)
@settings(max_examples=150)
def test_replayed_and_reordered_observations_agree(data, seed, query_round):
    """Monotonicity: any shuffle of the stream, with arbitrary replays
    mixed in, yields the same windows and the same trusted output."""
    n, window, observations = data
    rng = np.random.default_rng(seed)
    shuffled = list(observations)
    rng.shuffle(shuffled)
    # Replay a random prefix of the shuffled stream a second time.
    replayed = shuffled + shuffled[: int(rng.integers(0, len(shuffled) + 1))]

    in_order = feed(n, window, observations)
    chaotic = feed(n, window, replayed)
    for pid in range(n):
        assert (
            chaotic.alive(pid, query_round) == in_order.alive(pid, query_round)
        ).all()
        assert chaotic.trusted(pid, query_round) == in_order.trusted(
            pid, query_round
        )


def _with_metrics(n, window):
    from repro.obs.registry import MetricsRegistry

    return HeartbeatOmega(n, suspicion_rounds=window, metrics=MetricsRegistry())


def _counters(oracle):
    return dict(oracle._metrics.snapshot()["counters"])


@given(data=observation_sequences(), seed=st.integers(0, 2**16))
@settings(max_examples=150)
def test_every_feed_of_a_round_is_the_same_observation(data, seed):
    """Row-locality, the contract of the detector's one rule:
    ``observe_rows(k, M)``, the same with every row named, and any
    partition of the receivers fed group by group in any order — single
    rows included, an
    event-driven node reporting as its own round ends — leave the same
    freshness map, suspicion masks and ``omega.*`` counter totals."""
    n, window, observations = data
    rng = np.random.default_rng(seed)
    whole, by_rows, in_parts = (_with_metrics(n, window) for _ in range(3))
    for round_number, matrix in observations:
        whole.observe_rows(round_number, matrix)
        by_rows.observe_rows(round_number, matrix, rows=list(range(n)))
        cuts = np.flatnonzero(rng.random(n - 1) < 0.5) + 1
        for group in np.split(rng.permutation(n), cuts):
            in_parts.observe_rows(round_number, matrix, rows=group.tolist())
    for other in (by_rows, in_parts):
        assert np.array_equal(whole._last_heard, other._last_heard)
        assert np.array_equal(whole._suspected, other._suspected)
        assert _counters(whole) == _counters(other)


@st.composite
def replay_cases(draw):
    """A detector that has already lived a little, then a run to replay:
    delivery tensor, each receiver's last ended round (0 included) and a
    mask of rounds whose queries are never forwarded."""
    n = draw(st.integers(min_value=2, max_value=8))
    window = draw(st.integers(min_value=1, max_value=5))
    rounds = draw(st.integers(min_value=0, max_value=12))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    density = draw(st.sampled_from([0.1, 0.5, 0.9]))
    history = [
        (int(rng.integers(1, 9)), rng.random((n, n)) < density)
        for _ in range(draw(st.integers(min_value=0, max_value=4)))
    ]
    answered = rng.random(n) < 0.5
    timely = rng.random((rounds, n, n)) < density
    ended = [
        draw(st.sampled_from([0, rounds, int(rng.integers(0, rounds + 1))]))
        for _ in range(n)
    ]
    unasked = draw(st.sampled_from([None, rng.random(rounds + 1) < 0.3]))
    return n, window, history, answered, timely, ended, unasked


def _lived(n, window, history, answered):
    """A detector with a live registry that observed ``history`` and
    answered the receivers marked in ``answered`` afterwards."""
    oracle = _with_metrics(n, window)
    for round_number, matrix in history:
        oracle.observe_rows(round_number, matrix)
        for pid in np.flatnonzero(answered).tolist():
            oracle.query(pid, round_number)
    return oracle


@given(case=replay_cases())
@settings(max_examples=300, deadline=None)
def test_replay_is_the_interleaved_sequence(case):
    """``replay`` is ``observe_rows`` + ``query`` in closed form: same
    answers, same windows now and once everything has aged out, same
    leader-change accounting on the next query, same counter totals —
    from whatever state the detector was in."""
    n, window, history, answered, timely, ended, unasked = case
    rounds = len(timely)
    looped = _lived(n, window, history, answered)
    bulk = _lived(n, window, history, answered)

    expected = np.full((rounds + 1, n), -1)
    for k in range(rounds + 1):
        enders = [pid for pid in range(n) if k <= ended[pid]]
        if k:
            looped.observe_rows(k, timely[k - 1], rows=enders)
        if unasked is None or not unasked[k]:
            for pid in enders:
                expected[k, pid] = looped.query(pid, k)

    table = bulk.replay(timely, ended, unasked)

    assert np.array_equal(table, expected)
    assert np.array_equal(bulk._last_heard, looped._last_heard)
    assert np.array_equal(bulk._suspected, looped._suspected)
    for pid in range(n):
        for at in (rounds, rounds + window + 1):
            assert (bulk.alive(pid, at) == looped.alive(pid, at)).all()
            assert (bulk.suspected(pid, at) == looped.suspected(pid, at)).all()
            assert bulk.trusted(pid, at) == looped.trusted(pid, at)
    assert _counters(bulk) == _counters(looped)
    # The next query counts a leader change against the same last output.
    for pid in range(n):
        assert bulk.query(pid, rounds + window + 1) == looped.query(
            pid, rounds + window + 1
        )
    assert _counters(bulk) == _counters(looped)
