"""A finished, dropped ``SyncRun`` is freed by reference count alone.

What a run leaves behind — nodes, transport, simulator, processes —
used to be cyclic garbage
(``transport._handlers`` → bound ``node._on_receive`` → ``node.transport``;
``transport._simulator`` → heap → never-fired delivery and fault
callbacks → the transport / the run), freed only when the generational
collector happened to run a full pass: a sweep's peak memory was "one
live run plus however many dead ones are still floating".  Both engines
now end with an empty event queue and the node's reference to its
transport is weak, so with the collector switched off nothing of a
dropped run survives.

Nor does a live run grow with its rounds: a process keeps the messages
of its current and future rounds only, on either stack.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.core import WlmConsensus
from repro.faults.plan import ClockStep, Crash, FaultPlan
from repro.giraf import IIDSchedule, LockstepRunner
from repro.giraf.oracle import FixedLeaderOracle
from repro.net import planetlab_profile
from repro.obs.registry import MetricsRegistry
from repro.sim import Clock, Transport
from repro.sync import SyncRun, probe_run

N = 8
ROUNDS = 25

#: The "late" plans book a fault past the run's end: its event is still
#: in the queue when the last node stops.
PLANS = {
    "late crash": FaultPlan(n=N, crashes=(Crash(pid=2, at_round=ROUNDS + 30),)),
    "late step": FaultPlan(
        n=N,
        clock_steps=(
            ClockStep(pid=1, at_round=3, offset=0.02),
            ClockStep(pid=4, at_round=ROUNDS + 30, offset=0.05),
        ),
    ),
    "recovery": FaultPlan(
        n=N, crashes=(Crash(pid=3, at_round=5, recover_round=11),)
    ),
}


def build(kind: str) -> SyncRun:
    metrics = MetricsRegistry() if kind == "instrumented" else None
    profile = planetlab_profile(seed=5, slow_run_prob=0.0)
    table = np.full((N, N), 0.05)
    if kind == "consensus":
        return SyncRun(
            N,
            lambda pid: WlmConsensus(pid, N, proposal=f"v{pid}"),
            FixedLeaderOracle(0),
            lambda sim: Transport(sim, profile),
            timeout=0.21,
            latency_table=table,
            max_rounds=ROUNDS,
        )
    extras = {}
    if kind in PLANS:
        extras["plan"] = PLANS[kind]
    elif kind == "hetero":
        extras["clocks"] = [Clock(offset=0.2 * i, drift=2e-5 * (i - 4)) for i in range(N)]
        extras["start_times"] = [0.13 * i for i in range(N)]
    return probe_run(
        profile, table, 0.21, ROUNDS, metrics=metrics,
        omega=kind == "instrumented", **extras,
    )


@pytest.mark.parametrize(
    "kind, mode",
    [
        ("clean", "scalar"),
        ("clean", "batch"),
        ("instrumented", "scalar"),
        ("instrumented", "batch"),
        ("late crash", "scalar"),
        ("late crash", "batch"),
        ("late step", "scalar"),
        ("recovery", "scalar"),
        ("hetero", "scalar"),
        ("consensus", "scalar"),
    ],
)
def test_finished_run_is_freed_without_the_collector(kind, mode):
    gc.collect()
    gc.disable()
    try:
        run = build(kind)
        # "batch" names the engine expected of the default ``auto``.
        result = run.run(mode="scalar" if mode == "scalar" else "auto")
        assert run.executed_mode == mode
        assert len(result.matrices) == ROUNDS
        assert run.simulator.pending_events == 0
        held = [
            weakref.ref(run),
            weakref.ref(run.nodes[0]),
            # The process owns its slot store (a dict cannot be
            # weak-referenced itself).
            weakref.ref(run.nodes[0].process),
            weakref.ref(run.transport),
            weakref.ref(run.simulator),
        ]
        del run, result
        assert [ref() for ref in held] == [None] * len(held)
    finally:
        gc.enable()


@pytest.mark.parametrize("stack", ["event", "lockstep"])
def test_a_process_keeps_no_past_round(stack):
    rounds = 1_000
    n = 5

    def factory(pid):
        return WlmConsensus(pid, n, proposal=pid)

    if stack == "event":
        run = SyncRun(
            n, factory, FixedLeaderOracle(0),
            lambda sim: Transport(sim, planetlab_profile(seed=5, slow_run_prob=0.0)),
            timeout=0.21, latency_table=np.full((n, n), 0.05), max_rounds=rounds,
        )
        run.run(mode="scalar")
        processes = [node.process for node in run.nodes]
    else:
        runner = LockstepRunner(
            n, factory, FixedLeaderOracle(0), IIDSchedule(n, p=0.5, seed=3)
        )
        runner.run(max_rounds=rounds, stop_on_global_decision=False)
        processes = runner.processes
    for process in processes:
        assert process.round == rounds + 1
        assert all(k >= process.round for k in process.slots)
