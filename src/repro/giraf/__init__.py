"""GIRAF: the paper's generic round-based framework (Algorithm 1).

GIRAF (General Round-based Algorithm Framework, Keidar & Shraer, PODC'06)
expresses an indulgent algorithm as two functions, ``initialize()`` and
``compute()``, run by a generic round automaton.  The environment advances
rounds via *end-of-round* actions; timing models are predicates on which
messages arrive in the round they were sent.

This package contains the framework itself plus the machinery to execute
it:

- :mod:`kernel` — the algorithm interface: ``compute`` reads one round's
  messages.
- :mod:`process` — the generic process automaton of Algorithm 1, its
  end-of-round action and its transmit step, the ones every engine calls.
- :mod:`oracle` — failure-detector oracles (:math:`\\Omega` and friends).
- :mod:`schedule` — delivery schedules: one timely matrix per round.
- :mod:`runner` — the round step (one GIRAF round, given the round's
  graph) and a lockstep executor on it with full instrumentation; each
  round's timely graph is the schedule's matrix minus a fault plan's mask.
"""

from repro.giraf.kernel import GirafAlgorithm, RoundOutput
from repro.giraf.oracle import (
    Oracle,
    FixedLeaderOracle,
    EventuallyStableLeaderOracle,
    RotatingLeaderOracle,
    NullOracle,
)
from repro.giraf.process import GirafProcess
from repro.giraf.schedule import (
    Schedule,
    MatrixSchedule,
    IIDSchedule,
    StableAfterSchedule,
    IntermittentlyStableSchedule,
)
from repro.giraf.runner import LockstepRunner, RunResult

__all__ = [
    "GirafAlgorithm",
    "RoundOutput",
    "Oracle",
    "FixedLeaderOracle",
    "EventuallyStableLeaderOracle",
    "RotatingLeaderOracle",
    "NullOracle",
    "GirafProcess",
    "Schedule",
    "MatrixSchedule",
    "IIDSchedule",
    "StableAfterSchedule",
    "IntermittentlyStableSchedule",
    "LockstepRunner",
    "RunResult",
]
