"""The named fault plans: one builder each, one plan per arguments.

:data:`CATALOG` maps a plan's name to the fewest rounds its windows fit
in and its builder ``(n, rounds, seed)``.  A builder's windows scale
with a third of the run, and its ``derive_seed`` label places the plan
in the seed space.  :func:`build` is memoised: a plan is frozen and its
memos are pure functions of its fields, so every caller asking for an
equal plan shares one instance and draws each of its rounds once.
"""

from __future__ import annotations

from functools import cache

from repro.faults.adversary import StabilityWindowAdversary
from repro.faults.plan import Crash, FaultPlan, LeaderChurn, LossBurst, Partition, SlowNode
from repro.sim.rng import derive_seed


def _canonical(n: int, rounds: int, seed: int) -> FaultPlan:
    """The conformance runs' transient faults: a recoverable crash, a
    loss burst and a slow node, so ``correct()`` stays everyone."""
    third = max(8, rounds // 3)
    return FaultPlan(
        n=n,
        crashes=(Crash(min(2, n - 1), third, recover_round=third + 4),),
        loss_bursts=(LossBurst(third + 8, third + 10, drop_prob=0.9),),
        slow_nodes=(SlowNode(n - 1, third + 14, third + 18, factor=3.0),),
        seed=derive_seed(seed, "check:canonical-plan"),
    )


def _canonical_batch(n: int, rounds: int, seed: int) -> FaultPlan:
    """The batched engine's fault classes: a permanent crash, a loss
    burst, a partition and a slow node."""
    third = max(8, rounds // 3)
    halves = (tuple(range(n // 2)), tuple(range(n // 2, n)))
    return FaultPlan(
        n=n,
        crashes=(Crash(min(2, (n + 1) // 2 - 1), third),),
        loss_bursts=(LossBurst(third + 8, third + 10, drop_prob=0.9),),
        partitions=(Partition(halves, third + 14, third + 18),),
        slow_nodes=(SlowNode(n - 1, third + 22, third + 26, factor=3.0),),
        seed=derive_seed(seed, "check:canonical-batch-plan"),
    )


def _adversary(n: int, rounds: int, seed: int) -> FaultPlan:
    """The eventually stabilizing adversary, GSR a third into the run;
    bursts and partitions only, so batch-eligible."""
    return StabilityWindowAdversary(
        n=n, gsr_round=max(17, rounds // 3), window_length=3, window_period=8,
        seed=derive_seed(seed, "check:adversary"),
    ).to_plan()


def _crash_recover(n: int, rounds: int, seed: int) -> FaultPlan:
    third = max(4, rounds // 3)
    crashes = (Crash(2, third // 2, third), Crash(5, third + third // 2))
    return FaultPlan(n, crashes, seed=derive_seed(seed, "faults:crash+recover"))


def _loss_burst(n: int, rounds: int, seed: int) -> FaultPlan:
    third = max(4, rounds // 3)
    bursts = (LossBurst(third // 2, third // 2 + 3, 0.95), LossBurst(third, third + 1))
    return FaultPlan(n, loss_bursts=bursts, seed=derive_seed(seed, "faults:loss-burst"))


def _partition(n: int, rounds: int, seed: int) -> FaultPlan:
    third = max(4, rounds // 3)
    halves = (tuple(range(n // 2)), tuple(range(n // 2, n)))
    cut = (Partition(halves, third // 2, third),)
    return FaultPlan(n, partitions=cut, seed=derive_seed(seed, "faults:partition"))


def _slow_node(n: int, rounds: int, seed: int) -> FaultPlan:
    slow = (SlowNode(n - 1, 1, 2 * max(4, rounds // 3)),)
    return FaultPlan(n, slow_nodes=slow, seed=derive_seed(seed, "faults:slow-node"))


def _leader_churn(n: int, rounds: int, seed: int) -> FaultPlan:
    churn = (LeaderChurn(1, 2 * max(4, rounds // 3)),)
    label = "faults:leader-churn"
    return FaultPlan(n, leader_churn=churn, seed=derive_seed(seed, label))


#: Plan name -> (fewest rounds, builder).  The faults table's five
#: classes keep their windows in the first two thirds of any run, so that
#: decision windows complete after them, and declare no minimum.
CATALOG = {
    "canonical": (40, _canonical),
    "canonical-batch": (40, _canonical_batch),
    "adversary": (60, _adversary),
    "crash+recover": (0, _crash_recover),
    "loss burst": (0, _loss_burst),
    "partition": (0, _partition),
    "slow node": (0, _slow_node),
    "leader churn": (0, _leader_churn),
}


def build(name: str, n: int, rounds: int, seed: int = 0) -> FaultPlan:
    """The plan ``name`` for ``n`` processes and ``rounds`` rounds,
    refused when its windows need more; equal arguments, however
    passed, return the same instance."""
    minimum, _ = CATALOG[name]
    if rounds < minimum:
        raise ValueError(
            f"the {name!r} plan needs at least {minimum} rounds, not {rounds}"
        )
    return _built(name, n, rounds, seed)


@cache
def _built(name: str, n: int, rounds: int, seed: int) -> FaultPlan:
    return CATALOG[name][1](n, rounds, seed)
