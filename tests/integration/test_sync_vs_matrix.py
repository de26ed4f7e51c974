"""Validation of the synchronized-round idealization.

The measurement figures sample delivery matrices directly ("a message is
timely iff its latency is below the timeout", back-to-back rounds), while
the real protocol cuts rounds with local timers and jumps.  This test
runs both against the same network profile and checks they agree on the
quantities the figures report — the measured p and the P_M ordering.
On a time-invariant network the protocol runs on the round grid, and
there the two agree in every cell, under a fault plan too.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.measurement import (
    idealized_matrices,
    model_satisfaction,
    sample_latency_trace,
    timely_matrices,
)
from repro.faults.catalog import build
from repro.giraf.oracle import NullOracle
from repro.net import (
    measure_latency_table,
    planetlab_profile,
    uniform_wan_profile,
)
from repro.net.planetlab import LEADER_NODE
from repro.sim import Transport
from repro.sync import HeartbeatAlgorithm, ProbeScenario, SyncRun

TIMEOUT = 0.21
ROUNDS = 120


@pytest.fixture(scope="module")
def sync_matrices():
    profile = planetlab_profile(seed=123)
    table = measure_latency_table(planetlab_profile(seed=124), pings=15)
    run = SyncRun(
        8,
        lambda pid: HeartbeatAlgorithm(pid, 8),
        NullOracle(),
        lambda sim: Transport(sim, profile),
        timeout=TIMEOUT,
        latency_table=table,
        max_rounds=ROUNDS,
    )
    result = run.run()
    return np.array(result.matrices[5:])


@pytest.fixture(scope="module")
def ideal_matrices():
    trace = sample_latency_trace(planetlab_profile(seed=123), ROUNDS, TIMEOUT)
    return timely_matrices(trace, TIMEOUT)[5:]


class TestSyncVersusMatrixMode:
    def test_delivery_fractions_agree(self, sync_matrices, ideal_matrices):
        off = ~np.eye(8, dtype=bool)
        sync_p = np.mean([m[off].mean() for m in sync_matrices])
        ideal_p = np.mean([m[off].mean() for m in ideal_matrices])
        # The protocol loses a little budget to residual round offsets;
        # the two must agree within a few percent.
        assert abs(sync_p - ideal_p) < 0.06

    def test_pm_ordering_agrees(self, sync_matrices, ideal_matrices):
        """Both modes must rank the models identically: the conclusion the
        figures draw (WLM easiest, ES hopeless) cannot be an artifact of
        the idealization."""

        def pm(matrices):
            return {
                "ES": model_satisfaction(matrices, "ES"),
                "AFM": model_satisfaction(matrices, "AFM"),
                "LM": model_satisfaction(matrices, "LM", leader=LEADER_NODE),
                "WLM": model_satisfaction(matrices, "WLM", leader=LEADER_NODE),
            }

        sync_pm = pm(sync_matrices)
        ideal_pm = pm(ideal_matrices)
        for values in (sync_pm, ideal_pm):
            assert values["WLM"] >= values["LM"] - 0.05
            assert values["LM"] >= values["AFM"] - 0.08
            assert values["ES"] < 0.45

    def test_pm_values_close(self, sync_matrices, ideal_matrices):
        for model, leader in (("WLM", LEADER_NODE), ("AFM", None)):
            sync_value = model_satisfaction(sync_matrices, model, leader=leader)
            ideal_value = model_satisfaction(ideal_matrices, model, leader=leader)
            assert abs(sync_value - ideal_value) < 0.22, model


class TestOnTheGridTheIdealizationIsExact:
    """A uniform-WAN probe run (n = 8, 120 rounds, timeout 0.1) executes
    on the round grid; its matrices are the idealization's, cell for
    cell — the plan's verdicts included, each burst drawn once by the
    plan for both."""

    @pytest.mark.parametrize("plan", [None, "adversary"])
    def test_sync_run_matrices_equal_the_idealization(self, plan):
        row = ProbeScenario(
            "uniform-wan", uniform_wan_profile, 0.1, ROUNDS, 0, "check:uniform-wan"
        )
        if plan is not None:
            row = replace(row, plan=build("adversary", 8, ROUNDS))
        run = row.event_run("trace")
        matrices = np.array(run.run().matrices)
        assert run.executed_mode == "batch"
        trace = sample_latency_trace(row.network("trace"), ROUNDS, row.timeout)
        ideal = idealized_matrices(trace, row.timeout, row.plan)
        assert matrices.shape == ideal.shape
        differ = np.argwhere(matrices != ideal)
        assert not len(differ), differ[:10].tolist()
