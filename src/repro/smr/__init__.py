"""State-machine replication — the paper's motivating application.

Consensus matters because it orders commands for replicated state machines
[20]; this package closes that loop: a :class:`ReplicaGroup` runs one
consensus instance per log slot (with any of the repo's algorithms) and
applies the decided commands to a deterministic state machine on every
replica.  The leader-stability assumption of the paper's analysis — "the
same leader may persist for numerous instances of consensus (possibly
thousands)" — is directly visible here: one :math:`\\Omega` oracle serves
every instance.

- :mod:`command` — totally ordered commands (consensus ``Values``).
- :mod:`statemachine` — the state-machine interface and a key-value store.
- :mod:`log` — the replicated log of decided slots.
- :mod:`replica` — the replica group driving consensus per slot.
"""

from repro.smr.command import Command, noop
from repro.smr.statemachine import StateMachine, KVStore
from repro.smr.log import ReplicatedLog
from repro.smr.replica import ReplicaGroup, SlotResult

__all__ = [
    "Command",
    "noop",
    "StateMachine",
    "KVStore",
    "ReplicatedLog",
    "ReplicaGroup",
    "SlotResult",
]
