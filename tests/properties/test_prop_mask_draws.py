"""A round's link faults are drawn once, and the bytes did not move.

:meth:`FaultPlan._draws` draws a round's burst blocks and then its slow
nodes' rows from one ``rng("mask", k)`` into one memo that
:meth:`FaultPlan.burst_hits` and :meth:`FaultPlan.mask` both read.
Before, a round with both a live burst and an active slow node seeded
that generator a second time for the slow rows, re-drawing the bursts'
blocks to reach them.  :class:`SeededTwice` is a frozen copy of that
code; over plans whose bursts and slow nodes overlap, the masks, the
hits and :class:`PlanLinkFaults`' verdicts (block and per message) must
equal it bit for bit.
"""

from functools import cached_property

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.faults import (
    Crash,
    FaultPlan,
    LossBurst,
    Partition,
    PlanLinkFaults,
    SlowNode,
)

ROUNDS = 16


class SeededTwice(FaultPlan):
    """The plan's draws as they were: memoised hits, re-seeded slow rows."""

    @cached_property
    def _hit_memo(self) -> dict[int, np.ndarray]:
        return {}

    def burst_hits(self, round_number):
        bursts = self.round_state(round_number).bursts
        if not bursts:
            return np.zeros((0, self.n, self.n), dtype=bool)
        hits = self._hit_memo.get(round_number)
        if hits is None:
            draws = self.rng("mask", round_number).random(
                (len(bursts), self.n, self.n)
            )
            drop_probs = [self.loss_bursts[index].drop_prob for index in bursts]
            hits = self._hit_memo[round_number] = (
                draws < np.reshape(drop_probs, (-1, 1, 1))
            )
        return hits

    def mask(self, round_number):
        state = self.round_state(round_number)
        masked = state.cross | self.burst_hits(round_number).any(axis=0)
        slow_nodes = [s for s in self.slow_nodes if s.active_at(round_number)]
        if slow_nodes:
            rng = self.rng("mask", round_number)
            rng.random((len(state.bursts), self.n, self.n))
            for slow in slow_nodes:
                rows = rng.random((2, self.n)) < slow.drop_prob
                masked[slow.pid, :] |= rows[0]
                masked[:, slow.pid] |= rows[1]
        last_words = [
            (c.pid, sorted(c.final_sends))
            for c in self.crashes
            if c.final_sends and c.at_round == round_number
        ]
        kept = [masked[dsts, pid] | state.down[dsts] for pid, dsts in last_words]
        masked[state.down, :] = True
        masked[:, state.down] = True
        for (pid, dsts), column in zip(last_words, kept):
            masked[dsts, pid] = column
        np.fill_diagonal(masked, False)
        return masked


def window(draw, longest=8):
    start = draw(st.integers(1, ROUNDS - 2))
    return start, start + draw(st.integers(0, longest))


@st.composite
def overlapping_plans(draw):
    """2–6 processes, 1–3 bursts and 1–2 slow nodes opening in the same
    stretch of rounds (so most examples have rounds with both), plus a
    recovering crash and a partition in part of the examples."""
    n = draw(st.integers(2, 6))
    bursts = tuple(
        LossBurst(*window(draw), draw(st.sampled_from([0.0, 0.3, 0.9, 1.0])))
        for _ in range(draw(st.integers(1, 3)))
    )
    slow_nodes = tuple(
        SlowNode(
            draw(st.integers(0, n - 1)), *window(draw),
            factor=draw(st.sampled_from([1.0, 2.0])),
            drop_prob=draw(st.sampled_from([0.0, 0.5, 1.0])),
        )
        for _ in range(draw(st.integers(1, 2)))
    )
    crashes, partitions = (), ()
    if n >= 3 and draw(st.booleans()):
        at, recover = window(draw)
        crashes = (Crash(draw(st.integers(0, n - 1)), at, recover + 1),)
    if draw(st.booleans()):
        cut = draw(st.integers(1, n - 1))
        at, heal = window(draw)
        partitions = (
            Partition((tuple(range(cut)), tuple(range(cut, n))), at, heal + 1),
        )
    return dict(
        n=n, crashes=crashes, loss_bursts=bursts, partitions=partitions,
        slow_nodes=slow_nodes, seed=draw(st.integers(0, 2**31 - 1)),
    )


@given(fields=overlapping_plans())
@settings(max_examples=80, deadline=None)
def test_masks_and_hits_equal_the_seeded_twice_code(fields):
    plan, old = FaultPlan(**fields), SeededTwice(**fields)
    for k in range(1, ROUNDS + 10):
        assert (plan.burst_hits(k) == old.burst_hits(k)).all()
        assert (plan.mask(k) == old.mask(k)).all()
    # Asked again, in reverse: the memo serves the same bytes.
    for k in range(ROUNDS + 9, 0, -1):
        assert (plan.mask(k) == old.mask(k)).all()


@given(
    fields=overlapping_plans(),
    timeout=st.sampled_from([0.1, 1.0]),
    density=st.sampled_from([0.4, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_wire_verdicts_equal_the_seeded_twice_code(fields, timeout, density, seed):
    plans = FaultPlan(**fields), SeededTwice(**fields)
    n = plans[0].n
    sent = np.random.default_rng(seed).random((ROUNDS + 4, n, n)) < density
    sent &= ~np.eye(n, dtype=bool)
    policies = [PlanLinkFaults(plan, timeout) for plan in plans]
    times = np.array([policies[0].start_of(k) for k in range(1, ROUNDS + 5)])
    judged = [policy.judge(sent, policy.rounds_of(times)) for policy in policies]
    (lost, factor, drops), (old_lost, old_factor, old_drops) = judged
    assert (lost == old_lost).all()
    assert (factor == old_factor).all()
    assert drops == old_drops

    singles = [PlanLinkFaults(plan, timeout) for plan in plans]
    for k, dst, src in np.argwhere(sent).tolist():
        verdicts = [policy.drop(src, dst, times[k]) for policy in singles]
        assert verdicts[0] == verdicts[1] == lost[k, dst, src]
