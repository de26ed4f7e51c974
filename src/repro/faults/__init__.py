"""Unified fault injection: one declarative plan, every runner.

A :class:`FaultPlan` scripts crashes (with optional recovery),
message-loss bursts, network partitions, slow-node episodes, clock-offset
steps and forced leader churn on a 1-based round timeline.  The same plan
drives

- the lockstep GIRAF runner, via the ``fault_plan`` of
  :class:`repro.giraf.runner.LockstepRunner`: permanent crashes kill
  their processes, each round's :meth:`FaultPlan.mask` loses messages
  and a :class:`ChurningOracle` overrides the oracle in churn windows, and
- the event-driven stack, via the same ``fault_plan`` of
  :class:`repro.sync.round_sync.SyncRun`: the run books the node-level
  faults on its simulator and assigns a :class:`PlanLinkFaults` policy to
  its transport's ``faults`` for the link-level ones,

with every random choice derived from the plan's seed by the codebase's
SHA-256 rule, so each path realizes the scenario bit-reproducibly.  A
burst is one realization on every path: ``FaultPlan.burst_hits`` draws it
once per (round, link), and ``FaultPlan.mask`` (the lockstep runner,
``apply_to_matrices``, stabilization) and ``PlanLinkFaults`` (the
transport, both batched engines, the idealization) both read it.  A slow
node alone keeps two views: drops in the mask, a latency factor on the
wire.
"""

from repro.faults.adversary import StabilityWindowAdversary
from repro.faults.plan import (
    Crash,
    ClockStep,
    FaultPlan,
    LeaderChurn,
    LossBurst,
    Partition,
    SlowNode,
)
from repro.faults.lockstep import ChurningOracle
from repro.faults.event import PlanLinkFaults

__all__ = [
    "Crash",
    "ClockStep",
    "FaultPlan",
    "LeaderChurn",
    "LossBurst",
    "Partition",
    "SlowNode",
    "StabilityWindowAdversary",
    "ChurningOracle",
    "PlanLinkFaults",
]
