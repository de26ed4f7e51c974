"""Deliberately broken algorithms: proof the checkers can fire.

A conformance harness that has never flagged anything is
indistinguishable from one that cannot.  This module seeds a concrete
bug — Algorithm 2 with the ``majApproved`` safeguard stripped (the exact
mechanism Lemma 3 relies on) — together with the 3-process schedule on
which it provably violates agreement, so benchmarks and tests can assert
that the :mod:`repro.check.invariants` checkers really detect it.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.consensus.base import ConsensusMessage
from repro.core.wlm import WlmConsensus
from repro.giraf.oracle import ScriptedOracle
from repro.giraf.runner import LockstepRunner, RunResult
from repro.giraf.schedule import MatrixSchedule
from repro.models.matrix import empty_matrix


class BrokenAgreementWlm(WlmConsensus):
    """Algorithm 2 with ``majApproved`` stripped from commit and decide-3.

    Without the safeguard a process commits on *any* trusted leader's
    message and decides on any majority of COMMITs — which lets two
    leaders' camps decide different values (the scenario of
    :func:`agreement_violation_run`).  The two guard overrides below are
    the whole mutation: everything else is Algorithm 2's own code.
    """

    def _commit_guard(self, leader_msg: ConsensusMessage) -> bool:
        return True  # MUTATION: commit without the leader's majApproved.

    def _decide3_guard(self, own: ConsensusMessage) -> bool:
        return True  # MUTATION: decide-3 (own majApproved) removed.


def agreement_violation_run(
    observers: Sequence[Any] = (),
    algorithm: Optional[type] = None,
) -> RunResult:
    """Run the adversarial 3-process world that splits the mutant.

    p0 trusts itself; p1 and p2 trust p2.  Round 1 delivers each process
    only its trusted leader's message, so the mutant commits in two camps
    ("A" at p0; "C" at p1/p2); round 2 hands each camp a majority of
    COMMITs and both decide — agreement violated.  ``observers`` (e.g. an
    :class:`~repro.check.invariants.InvariantSuite`) watch it happen.

    ``algorithm`` defaults to :class:`BrokenAgreementWlm`; pass
    :class:`~repro.core.wlm.WlmConsensus` to confirm the real Algorithm 2
    survives the same schedule untouched.
    """
    if algorithm is None:
        algorithm = BrokenAgreementWlm
    n = 3
    round1 = empty_matrix(n)
    round1[1, 2] = True  # p2 -> p1
    round2 = empty_matrix(n)
    round2[0, 2] = True  # p2 -> p0
    round2[2, 1] = True  # p1 -> p2
    schedule = MatrixSchedule([round1, round2, empty_matrix(n)])
    oracle = ScriptedOracle([[0, 2, 2]])
    proposals = ["A", "B-from-p1", "C"]
    runner = LockstepRunner(
        n,
        lambda pid: algorithm(pid, n, proposals[pid]),
        oracle,
        schedule,
        observers=observers,
    )
    return runner.run(max_rounds=4, stop_on_global_decision=False)
