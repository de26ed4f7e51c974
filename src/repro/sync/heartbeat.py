"""The all-to-all probe algorithm of the measurement experiments.

The paper's LAN and WAN experiments do not run consensus directly: every
node sends a message to every other node each round, and the *conditions*
of each timing model are evaluated offline on the resulting delivery
matrices ("we measure the time and number of rounds until the appropriate
conditions for global decision are satisfied for each model").  This
algorithm is that probe stream.

The run it is sent through is stated here too, once: :func:`probe_run`
builds the Section 5.1 measurement run every phase, benchmark and test
uses, and :class:`ProbeScenario` is that run as a row of data — network,
ping table, leader, timeout, rounds, fault plan — which the conformance
grid, the robustness cross-check and the adaptive live leg are tables of.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Mapping, Optional, Sequence

import numpy as np

from repro.faults.plan import FaultPlan
from repro.giraf.kernel import GirafAlgorithm, RoundOutput
from repro.giraf.oracle import FixedLeaderOracle, NullOracle
from repro.giraf.runner import LockstepRunner
from repro.giraf.schedule import MatrixSchedule
from repro.net.base import LatencyModel
from repro.net.ping import measure_latency_table, select_leader
from repro.obs.registry import MetricsRegistry
from repro.oracles.omega import HeartbeatOmega
from repro.sim.clock import Clock
from repro.sim.rng import derive_seed
from repro.sim.transport import Transport
from repro.sync.round_sync import SyncRun


@dataclass(frozen=True, slots=True)
class Probe:
    """A heartbeat payload: just the sender and the round it belongs to."""

    sender: int
    round_number: int


class HeartbeatAlgorithm(GirafAlgorithm):
    """Sends a probe to everyone each round; never decides."""

    def __init__(self, pid: int, n: int) -> None:
        self.pid = pid
        self.n = n
        self._all = frozenset(range(n))
        self.rounds_computed = 0

    def initialize(self, oracle_output: Any) -> RoundOutput:
        return RoundOutput(Probe(self.pid, 1), self._all)

    def compute(
        self, round_number: int, messages: Mapping[int, Any], oracle_output: Any
    ) -> RoundOutput:
        self.rounds_computed += 1
        return RoundOutput(Probe(self.pid, round_number + 1), self._all)


#: Pings per link behind every scenario's ``L_i[j]`` table.
PINGS = 15


def probe_run(
    profile: LatencyModel,
    table: np.ndarray,
    timeout: float,
    rounds: int,
    *,
    plan: Optional[FaultPlan] = None,
    metrics: Optional[MetricsRegistry] = None,
    omega: bool = False,
    observers: Sequence[Any] = (),
    clocks: Optional[Sequence[Clock]] = None,
    start_times: Optional[Sequence[float]] = None,
) -> SyncRun:
    """The Section 5.1 measurement run: the probe stream over ``profile``
    under the round synchroniser, ``rounds`` rounds at one ``timeout``,
    ``table`` being the nodes' ``L_i[j]`` estimates.  ``metrics`` is the
    run's one registry (nodes, transport and detector count into it);
    ``omega`` elects leaders with a :class:`HeartbeatOmega` over the probe
    stream instead of no oracle at all."""
    n = len(table)
    return SyncRun(
        n,
        lambda pid: HeartbeatAlgorithm(pid, n),
        HeartbeatOmega(n, metrics=metrics) if omega else NullOracle(),
        lambda sim: Transport(sim, profile, metrics=metrics),
        timeout=timeout,
        latency_table=table,
        clocks=clocks,
        start_times=start_times,
        max_rounds=rounds,
        fault_plan=plan,
        metrics=metrics,
        observers=observers,
    )


@dataclass(frozen=True, eq=False)
class ProbeScenario:
    """One measurement run as data: ping the network for ``L_i[j]``, fix a
    well-connected leader, run the probe stream at one timeout — under
    ``plan``, if the weather is bad.

    ``profile`` builds the network from a ``seed`` keyword, and every seed
    is ``derive_seed(seed, f"{streams}:{stream}")`` — the ping's stream is
    ``"ping"``, the others are named by whoever builds a run.  The ping
    happens once, when the record is made: rows derived from it with
    :func:`dataclasses.replace` (another plan, more rounds, another
    variant of the profile) share its table and leader.
    """

    #: What a report calls the network.
    name: str
    profile: Callable[..., LatencyModel]
    timeout: float
    rounds: int
    seed: int
    #: Prefix of the scenario's seed names (``"check:lan"``, ``"adaptive"``).
    streams: str
    plan: Optional[FaultPlan] = None
    #: What a report calls the plan.
    fault: str = "none"
    #: ``L_i[j]``: measured here unless inherited from another row.
    table: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.table is None:
            table = measure_latency_table(self.network("ping"), pings=PINGS)
            object.__setattr__(self, "table", table)

    @property
    def n(self) -> int:
        return len(self.table)

    @cached_property
    def leader(self) -> int:
        """The well-connected node the pings single out."""
        return select_leader(self.table)

    def network(self, stream: str) -> LatencyModel:
        """The profile, seeded for one named use of it."""
        return self.profile(seed=derive_seed(self.seed, f"{self.streams}:{stream}"))

    def event_run(self, stream: str, **extras: Any) -> SyncRun:
        """A fresh :func:`probe_run` of the scenario on the event stack
        (``extras``: its ``metrics``, ``omega``, ``observers``)."""
        return probe_run(
            self.network(stream), self.table, self.timeout, self.rounds,
            plan=self.plan, **extras,
        )

    def lockstep_run(
        self,
        algorithm: Callable[[int], GirafAlgorithm],
        matrices: np.ndarray,
        observers: Sequence[Any] = (),
    ) -> LockstepRunner:
        """The scenario on the lockstep stack: ``algorithm`` under the
        pinged leader over the *unfaulted* round ``matrices``, the plan
        installed as the runner's ``fault_plan``."""
        return LockstepRunner(
            self.n, algorithm, FixedLeaderOracle(self.leader),
            MatrixSchedule([np.array(m) for m in matrices]),
            fault_plan=self.plan, observers=observers,
        )
