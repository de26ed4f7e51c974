"""Adaptive selection under churn, against every fixed (model, timeout).

The experiment the adaptive stack exists for: a replicated key-value
store serves an open-loop client (one command every ``arrival_interval``
seconds of simulated wall time) over a WAN whose conditions churn — a
clean phase, then the elected leader's node degrades (all its links slow
by ``slow_factor``), then a partition isolates it entirely, then the
network heals.  The phases live in one :class:`repro.faults.FaultPlan`
anchored to wall time, one ``tick`` a round, as the event path's plan
rounds are, so every policy — fast or slow — faces the same weather at
the same *seconds*, not the same round count.

Each policy runs the same workload on its own
:class:`repro.smr.ReplicaGroup`:

- the **fixed baselines**: every (model, timeout) pair from the grid,
  with the leader the initial ping measurement elected;
- the **adaptive policy**: starts on the most conservative fixed
  configuration, watches the network through its
  :class:`~repro.adaptive.extractor.TimelinessExtractor` (fed the
  per-round latency probes of every slot it ran), and switches
  model/timeout/leader between slots.

Per-command decision latency is measured arrival-to-decision in wall
time, queueing included: a policy that stalls through the slow phase
pays for every command piling up behind the stall — the accounting under
which "fail fast at a short timeout" stops looking free.  Commands still
undecided at the deadline are charged ``deadline - arrival``.

Safety is checked throughout: a fresh invariant suite per slot
(agreement/validity/integrity), accumulated across every switch
boundary, plus the replicas' state-machine consistency at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.adaptive.extractor import TimelinessExtractor
from repro.adaptive.policy import (
    AdaptivePolicy,
    FixedPolicy,
    PolicyOracle,
    Switch,
)
from repro.check.invariants import default_suite
from repro.experiments.measurement import sample_latency_trace, timely_matrices
from repro.experiments.report import format_cell
from repro.faults.plan import FaultPlan, Partition, SlowNode
from repro.giraf.schedule import MatrixSchedule
from repro.net.granular import GranularProfile
from repro.net.ping import measure_latency_table, select_leader
from repro.net.planetlab import planetlab_profile
from repro.obs.registry import MetricsRegistry, registry_or_null
from repro.sim.rng import derive_seed
from repro.smr.command import Command
from repro.smr.replica import ReplicaGroup
from repro.smr.statemachine import KVStore


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs of the churn scenario (defaults: the benchmark scale)."""

    n: int = 8
    seed: int = 0
    #: Wall-time grid of the fault plan (seconds per plan round), and the
    #: round length the base latency trace is sampled at.
    tick: float = 0.2
    #: Length of the stationary base trace; consumed cyclically.
    trace_rounds: int = 256
    #: Candidate timeout grid (seconds), shared by extractor and baselines.
    timeouts: tuple[float, ...] = (0.16, 0.3, 0.7)
    models: tuple[str, ...] = ("ES", "AFM", "LM", "WLM")
    commands: int = 20
    arrival_interval: float = 2.5
    #: Wall-time budget; undecided commands are charged up to here.
    deadline: float = 80.0
    max_rounds_per_slot: int = 20
    max_slots: int = 600
    # Phase boundaries, in seconds of wall time.
    clean_seconds: float = 24.0
    slow_seconds: float = 28.0
    #: The degraded set: the four worst-connected nodes of the PlanetLab
    #: base matrix.  Slowing a single node would not move any algorithm —
    #: consensus routes around a minority — so the scenario degrades
    #: enough nodes that *every* majority quorum must cross a slow link,
    #: which is what separates the timeouts: at 0.16 s the slow nodes
    #: hear nobody (no global decision), at 0.7 s the mesh works again.
    slow_pids: tuple[int, ...] = (1, 2, 3, 4)
    slow_factor: float = 5.0
    partition_seconds: float = 8.0
    # Extractor / policy hysteresis.
    window: int = 30
    min_window: int = 10
    min_dwell: int = 2
    margin: float = 0.15
    #: Wrap the PlanetLab base in a :class:`GranularProfile`: the
    #: canonical hub assumption matrix's sync/psync links get contractual
    #: latency bounds below the smallest candidate timeout, so the GS
    #: conditions hold by construction whenever the contracts do.  The
    #: churn phases still bite — slow-node factors multiply the *clamped*
    #: latencies (0.12 x 5 = 0.6 busts the two short timeouts) and the
    #: partition severs hub links outright — so the granular guarantee is
    #: only eventually clean, which is exactly what the adaptive policy
    #: has to navigate.
    granular: bool = False
    granular_sync_bound: float = 0.10
    granular_psync_bound: float = 0.12


def granular_scenario_config(seed: int = 0) -> ScenarioConfig:
    """The churn scenario on a Granular Synchrony network: the same
    PlanetLab weather and fault timeline, but with per-link sync/psync
    contracts and GS in the candidate grid."""
    return ScenarioConfig(
        seed=seed,
        granular=True,
        models=("ES", "AFM", "GS", "LM", "WLM"),
    )


@dataclass
class PolicyRunReport:
    """One policy's workload outcome."""

    name: str
    latencies: list[float]
    decided_all: bool
    consistent: bool
    switches: int
    violations: int
    slots: int
    rounds: int
    timeline: list[Switch] = field(default_factory=list)

    @property
    def mean_latency(self) -> float:
        return float(np.mean(self.latencies)) if self.latencies else float("nan")

    @property
    def max_latency(self) -> float:
        return float(np.max(self.latencies)) if self.latencies else float("nan")


@dataclass
class ScenarioComparison:
    """The adaptive run against the full fixed grid."""

    adaptive: PolicyRunReport
    baselines: dict[str, PolicyRunReport]
    leader: int

    @property
    def best_fixed(self) -> PolicyRunReport:
        return min(self.baselines.values(), key=lambda r: r.mean_latency)

    @property
    def regret_seconds(self) -> float:
        """Mean-latency gap to the best fixed pair (negative = adaptive
        wins) — the scenario's headline number."""
        return self.adaptive.mean_latency - self.best_fixed.mean_latency

    @property
    def total_violations(self) -> int:
        return self.adaptive.violations + sum(
            r.violations for r in self.baselines.values()
        )


def churn_plan(config: ScenarioConfig, leader: int) -> FaultPlan:
    """The scenario's fault timeline, on the ``tick`` wall-time grid:
    clean, then the slow-set degradation, then a partition isolating the
    elected leader in a minority, then healed."""

    def to_round(seconds: float) -> int:
        return int(round(seconds / config.tick))

    slow_start = to_round(config.clean_seconds) + 1
    slow_end = to_round(config.clean_seconds + config.slow_seconds)
    partition_start = slow_end + 1
    heal = partition_start + to_round(config.partition_seconds)
    minority = (0, leader) if leader != 0 else (0, 5)
    majority = tuple(
        pid for pid in range(config.n) if pid not in minority
    )
    return FaultPlan(
        n=config.n,
        slow_nodes=tuple(
            SlowNode(
                pid=pid,
                start_round=slow_start,
                end_round=slow_end,
                factor=config.slow_factor,
            )
            for pid in config.slow_pids
        ),
        partitions=(
            Partition(
                groups=(minority, majority),
                start_round=partition_start,
                heal_round=heal,
            ),
        ),
        seed=derive_seed(config.seed, "adaptive:plan"),
    )


def faulted_latencies(
    base: np.ndarray, plan: FaultPlan, wall_time: float, tick: float
) -> np.ndarray:
    """One round's latency matrix with the plan's wall-time faults applied.

    A latency-level view of the plan, close to but *not* the event
    path's: a slow node's links — both directions — are multiplied by
    its factor, and a link between two slow nodes takes the slower
    endpoint's factor (the *max*), where the event path's
    :meth:`~repro.faults.event.PlanLinkFaults.latency_factor` multiplies
    the two.  The two views differ only on links whose endpoints are
    both slow at once; ``adaptive.txt`` is pinned to this one.
    Partitioned and crashed links are ``inf``.  ``wall_time`` maps to
    plan round ``floor(wall_time / tick) + 1``, with the quotient rounded
    to 9 decimals before the floor (:func:`churn_plan` rounds its
    ``seconds / tick`` too): the wall clock is a float sum of timeouts,
    and an instant on a tick boundary must not fall into the round
    before (0.6 / 0.2 is 2.9999999999999996).  The per-round state is
    the plan's own :meth:`~repro.faults.plan.FaultPlan.round_state`.
    """
    state = plan.round_state(int(round(wall_time / tick, 9)) + 1)
    latencies = base.copy()
    if (state.slow > 1.0).any():
        latencies = latencies * np.maximum.outer(state.slow, state.slow)
    latencies[state.down, :] = np.inf
    latencies[:, state.down] = np.inf
    latencies[state.cross] = np.inf
    np.fill_diagonal(latencies, 0.0)
    return latencies


def _run_policy(
    name: str,
    policy: FixedPolicy,
    config: ScenarioConfig,
    base_trace: np.ndarray,
    plan: FaultPlan,
    metrics: Optional[MetricsRegistry] = None,
) -> PolicyRunReport:
    total_rounds = base_trace.shape[0]
    extractor = getattr(policy, "extractor", None)
    clock = {"cursor": 0, "wall": 0.0}
    # The running slot's weather, one latency matrix per round it may
    # run: the schedule and the extractor read the same rows.
    weather = {"rows": None}

    def schedule_factory(slot: int) -> MatrixSchedule:
        # Called after policy.begin_slot, so policy.timeout is this
        # slot's round length.
        timeout = policy.timeout
        weather["rows"] = np.array([
            faulted_latencies(
                base_trace[(clock["cursor"] + j) % total_rounds],
                plan, clock["wall"] + j * timeout, config.tick,
            )
            for j in range(config.max_rounds_per_slot)
        ])
        return MatrixSchedule(list(timely_matrices(weather["rows"], timeout)))

    group = ReplicaGroup(
        config.n,
        policy.algorithm_factory,
        PolicyOracle(policy),
        schedule_factory,
        KVStore,
        max_rounds_per_instance=config.max_rounds_per_slot,
        policy=policy,
        invariant_factory=lambda slot: default_suite(metrics=metrics),
    )

    commands = [
        Command(client_id=100 + i, seq=i, op=("set", f"key{i}", str(i)))
        for i in range(config.commands)
    ]
    arrivals = {
        command: i * config.arrival_interval
        for i, command in enumerate(commands)
    }
    submitted: set[Command] = set()
    latencies: dict[Command, float] = {}

    while len(latencies) < len(commands) and clock["wall"] < config.deadline:
        if group.instances_run >= config.max_slots:
            break
        for command in commands:
            if command not in submitted and arrivals[command] <= clock["wall"]:
                group.submit(command.seq % config.n, command)
                submitted.add(command)
        result = group.run_slot()
        timeout = policy.timeout  # unchanged since this slot's begin_slot
        if extractor is not None:
            for j, row in enumerate(weather["rows"][: result.rounds]):
                extractor.observe_latencies(clock["cursor"] + j + 1, row)
        clock["cursor"] += result.rounds
        clock["wall"] += result.rounds * timeout
        if (
            result.decided
            and result.command is not None
            and not result.command.is_noop()
            and result.command in arrivals
            and result.command not in latencies
        ):
            latencies[result.command] = clock["wall"] - arrivals[result.command]

    decided_all = len(latencies) == len(commands)
    for command in commands:
        if command not in latencies:
            latencies[command] = max(
                config.deadline - arrivals[command], 0.0
            )
    ordered = [latencies[command] for command in commands]
    return PolicyRunReport(
        name=name,
        latencies=ordered,
        decided_all=decided_all,
        consistent=group.consistent(),
        switches=len(policy.switches),
        violations=len(group.violations),
        slots=group.instances_run,
        rounds=group.total_rounds,
        timeline=list(policy.switches),
    )


def run_adaptive_scenario(
    config: ScenarioConfig = ScenarioConfig(),
    metrics: Optional[MetricsRegistry] = None,
) -> ScenarioComparison:
    """Run the churn workload under the adaptive policy and the full
    fixed (model, timeout) grid; everything derives from ``config.seed``."""
    registry = registry_or_null(metrics)

    def network(seed: int):
        base = planetlab_profile(seed=seed)
        if not config.granular:
            return base
        return GranularProfile(
            base,
            sync_bound=config.granular_sync_bound,
            psync_bound=config.granular_psync_bound,
        )

    ping_profile = network(derive_seed(config.seed, "adaptive:ping"))
    leader = select_leader(measure_latency_table(ping_profile, pings=15))
    plan = churn_plan(config, leader=leader)
    base_trace = sample_latency_trace(
        network(derive_seed(config.seed, "adaptive:trace")),
        config.trace_rounds,
        config.tick,
    )

    baselines: dict[str, PolicyRunReport] = {}
    for model in config.models:
        for timeout in config.timeouts:
            name = f"{model}@{timeout:.2f}"
            baselines[name] = _run_policy(
                name,
                FixedPolicy(model, timeout, leader=leader),
                config,
                base_trace,
                plan,
                metrics=metrics,
            )

    extractor = TimelinessExtractor(
        config.n,
        config.timeouts,
        window=config.window,
        min_rounds=config.min_window,
        metrics=metrics,
    )
    adaptive_policy = AdaptivePolicy(
        extractor,
        model="WLM",
        timeout=config.timeouts[-1],  # start on the most conservative pair
        leader=leader,
        min_dwell=config.min_dwell,
        margin=config.margin,
        metrics=metrics,
    )
    adaptive = _run_policy(
        "adaptive",
        adaptive_policy,
        config,
        base_trace,
        plan,
        metrics=metrics,
    )

    comparison = ScenarioComparison(
        adaptive=adaptive, baselines=baselines, leader=leader
    )
    registry.gauge("adaptive.regret_seconds").set(comparison.regret_seconds)
    return comparison


def adaptive_report(comparison: ScenarioComparison) -> str:
    """Text table: every policy's workload outcome, adaptive first."""
    lines = [
        "adaptive model selection under churn "
        f"(initial leader: node {comparison.leader})",
        "",
        f"{'policy':<12}{'mean lat':>10}{'max lat':>10}{'decided':>9}"
        f"{'switches':>10}{'violations':>12}",
    ]

    def row(report: PolicyRunReport) -> str:
        return (
            f"{report.name:<12}"
            f"{format_cell(report.mean_latency, '.2f', unit='s'):>10}"
            f"{format_cell(report.max_latency, '.2f', unit='s'):>10}"
            f"{'yes' if report.decided_all else 'NO':>9}"
            f"{report.switches:>10}{report.violations:>12}"
        )

    lines.append(row(comparison.adaptive))
    for name in sorted(
        comparison.baselines, key=lambda k: comparison.baselines[k].mean_latency
    ):
        lines.append(row(comparison.baselines[name]))
    best = comparison.best_fixed
    lines.append("")
    lines.append(
        f"best fixed: {best.name} at "
        f"{format_cell(best.mean_latency, '.2f', unit='s')} mean; adaptive "
        f"regret {format_cell(comparison.regret_seconds, '+.2f', unit='s')} "
        f"({'adaptive wins' if comparison.regret_seconds < 0 else 'fixed wins'})"
    )
    if comparison.adaptive.timeline:
        lines.append("adaptive switch timeline:")
        for switch in comparison.adaptive.timeline:
            lines.append(
                f"  slot {switch.slot:>3}: -> {switch.model}@"
                f"{switch.timeout:.2f}s (leader {switch.leader}, "
                f"est {switch.expected_time:.2f}s)"
            )
    return "\n".join(lines)
