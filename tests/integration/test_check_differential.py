"""Integration tests: the differential harness and cross-stack checkers.

The full three-profile sweep lives in ``benchmarks/test_conformance.py``;
here one scenario per concern keeps tier-1 fast while pinning the
harness's behaviour: the idealization applies a plan's link faults as
the plan's own mask, both stacks agree on the observables, fault plans
ride through, the invariant suites attach to the event stack, and the
Monte-Carlo cross-check holds.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.check import (
    ConformanceReport,
    DiffRow,
    batched_differential_run,
    conformance_report,
    default_suite,
    differential_run,
    montecarlo_vs_equations,
    run_conformance,
)
from repro.check.differential import GRID, PROFILES
from repro.experiments.measurement import (
    idealized_matrices,
    sample_latency_trace,
    timely_matrices,
)
from repro.core import WlmConsensus
from repro.faults.catalog import build
from repro.giraf.oracle import FixedLeaderOracle
from repro.net import measure_latency_table, uniform_wan_profile
from repro.sim import Transport
from repro.sync import ProbeScenario, SyncRun, heartbeat
from tests.properties.test_prop_burst_drops import link_plans

ROUNDS = 80
TIMEOUT = 0.1


@pytest.fixture(scope="module")
def clean_row():
    return ProbeScenario(
        "uniform-wan", uniform_wan_profile, TIMEOUT, ROUNDS, 7, "check:uniform-wan"
    )


@pytest.fixture(scope="module")
def clean_result(clean_row):
    return differential_run(clean_row)


@pytest.fixture(scope="module")
def faulted_result(clean_row):
    return differential_run(
        replace(
            clean_row,
            plan=build("canonical", 8, ROUNDS, seed=7),
            fault="canonical",
        )
    )


@given(
    plan=link_plans(),
    timeout=st.sampled_from([0.1, 0.21, 0.25]),
    rounds=st.integers(1, 30),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_the_idealization_loses_what_the_plans_mask_loses(
    plan, timeout, rounds, seed
):
    """A burst is drawn once: the wire's verdict on round k's messages
    (``judge``, which the idealization calls) is ``plan.mask(k)`` — the
    lockstep runner's — in every cell, crashes and partitions included.
    A slow node is a latency factor, which the mask refuses."""
    plan = replace(plan, slow_nodes=())
    trace = np.random.default_rng(seed).exponential(
        timeout, (rounds, plan.n, plan.n)
    )
    masks = np.array([plan.mask(k) for k in range(1, rounds + 1)])
    expected = timely_matrices(trace, timeout) & ~masks
    assert np.array_equal(idealized_matrices(trace, timeout, plan), expected)


class TestDifferentialRun:
    def test_stacks_agree_without_faults(self, clean_result):
        assert clean_result.ok, [
            (r.quantity, r.lockstep, r.event)
            for r in clean_result.rows
            if not r.ok
        ]
        assert clean_result.fault == "none"

    def test_stacks_agree_under_the_canonical_plan(self, faulted_result):
        assert faulted_result.ok, [
            (r.quantity, r.lockstep, r.event)
            for r in faulted_result.rows
            if not r.ok
        ]
        assert faulted_result.fault == "canonical"

    def test_rows_cover_the_stated_observables(self, clean_result):
        quantities = [row.quantity for row in clean_result.rows]
        assert "measured p" in quantities
        for model in ("ES", "AFM", "LM", "WLM", "GS"):
            assert f"P_{model}" in quantities
        assert "D_WLM rounds" in quantities
        assert "sync error / timeout" in quantities

    def test_a_grid_row_replays_its_consensus_run(self, clean_result):
        assert clean_result.kind.startswith("exact")
        (row,) = [
            r for r in clean_result.rows if r.quantity == "identical: decisions"
        ]
        assert row.ok and row.tolerance == 0.0

    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_a_canonical_batch_run_is_the_idealization_off_the_diagonal(
        self, name
    ):
        """The dying process ends the round before its crash round on
        the grid too, so the two stacks agree in every cell but the dead
        process's own diagonal."""
        profile, rounds = PROFILES[name], 60
        plan = build("canonical-batch", 8, rounds)
        row = ProbeScenario(
            name, profile.static, profile.timeout, rounds, 0, f"check:{name}",
            plan=plan,
        )
        run = row.event_run("trace")
        event = np.asarray(run.run().matrices)
        assert run.executed_mode == "batch"
        trace = sample_latency_trace(row.network("trace"), rounds, row.timeout)
        ideal = idealized_matrices(trace, row.timeout, plan)
        off = ~np.eye(8, dtype=bool)
        assert np.array_equal(event[:, off], ideal[:, off])

    def test_consensus_safety_ran_on_both_stacks(self, clean_result):
        # Zero violations is only meaningful because the checkers were
        # attached; the structure records per-stack findings.
        assert clean_result.violations == []

    def test_faults_actually_bite(self, clean_result, faulted_result):
        """The faulted scenario must measurably degrade delivery — a plan
        that changes nothing would make the with-faults half vacuous."""

        def measured_p(result):
            return next(
                row for row in result.rows if row.quantity == "measured p"
            )

        assert (
            measured_p(faulted_result).lockstep
            < measured_p(clean_result).lockstep
        )


class TestOnePingPerRow:
    @pytest.fixture
    def pings(self, monkeypatch):
        calls = []

        def counted(model, pings):
            calls.append(pings)
            return measure_latency_table(model, pings=pings)

        monkeypatch.setattr(heartbeat, "measure_latency_table", counted)
        return calls

    def test_every_use_of_a_row_shares_its_table(self, pings):
        row = ProbeScenario(
            "uniform-wan", uniform_wan_profile, TIMEOUT, ROUNDS, 3, "check:uniform-wan"
        )
        faulted = replace(
            row, plan=build("canonical", 8, ROUNDS, seed=3), fault="canonical"
        )
        # Two-stack diff (its consensus-safety runs included), twin runs.
        assert differential_run(faulted).ok
        assert batched_differential_run(row).ok
        assert pings == [15]
        assert faulted.table is row.table and faulted.leader == row.leader

    def test_the_grid_pings_each_profile_variant_once(self, pings):
        report = run_conformance(mc_samples=50)
        assert len(report.results) + len(report.batch_axis) == len(GRID) == 23
        assert len(pings) <= 8


class TestDiffRow:
    def test_abs_kind_within_tolerance(self):
        assert DiffRow("x", 1.0, 1.05, 0.1).ok
        assert not DiffRow("x", 1.0, 1.2, 0.1).ok

    def test_lower_bound_kind_is_one_sided(self):
        row = DiffRow("x", 0.9, 0.99, 0.05, kind="lower-bound")
        assert row.ok  # estimate above the bound: fine at any distance
        assert not DiffRow("x", 0.9, 0.8, 0.05, kind="lower-bound").ok

    def test_nan_pairs(self):
        nan = float("nan")
        assert DiffRow("x", nan, nan, 0.1).ok  # both censored: agree
        assert not DiffRow("x", nan, 1.0, 0.1).ok
        assert not DiffRow("x", 1.0, nan, 0.1).ok


class TestMonteCarloVsEquations:
    def test_grid_matches_closed_forms(self):
        rows = montecarlo_vs_equations(
            p_grid=(0.9, 0.97), n=5, samples=1500, seed=3
        )
        assert len(rows) == 10  # 2 p-values x 5 models
        for row in rows:
            assert row.ok, (row.quantity, row.lockstep, row.event)

    def test_afm_rows_are_lower_bounds(self):
        rows = montecarlo_vs_equations(p_grid=(0.9,), n=4, samples=400)
        kinds = {r.quantity: r.kind for r in rows}
        assert kinds["P_AFM(p=0.9, n=4)"] == "lower-bound"
        assert kinds["P_ES(p=0.9, n=4)"] == "abs"


class TestSyncRunObservers:
    def test_suite_attaches_to_the_event_stack(self):
        """SyncRun must feed proposals, oracle outputs and decisions to
        observers, and its result must carry what the checkers read."""
        profile = uniform_wan_profile(seed=11)
        table = measure_latency_table(uniform_wan_profile(seed=12), pings=10)
        suite = default_suite()
        run = SyncRun(
            8,
            lambda pid: WlmConsensus(pid, 8, f"value-{pid}"),
            FixedLeaderOracle(0),
            lambda sim: Transport(sim, profile),
            timeout=TIMEOUT,
            latency_table=table,
            max_rounds=30,
            observers=[suite],
        )
        result = run.run()
        violations = suite.finish(result)
        assert violations == []
        # The uniform WAN at this timeout decides essentially always.
        assert result.decisions, "consensus never decided on a clean network"
        assert set(result.decision_rounds) == set(result.decisions)
        assert result.proposals == {
            pid: f"value-{pid}" for pid in range(8)
        }
        assert result.correct == frozenset(range(8))


class TestConformanceReportRendering:
    def test_report_text_sections(self, clean_result):
        report = ConformanceReport(
            results=[clean_result],
            mc_rows=montecarlo_vs_equations(p_grid=(0.95,), n=4, samples=400),
            mutation_detected=True,
            mutation_clean=True,
        )
        text = conformance_report(report)
        assert "uniform-wan" in text
        assert "Monte Carlo vs closed forms" in text
        assert "mutation self-test" in text
        assert text.rstrip().endswith("overall: PASS")

    def test_failed_report_renders_fail(self):
        report = ConformanceReport(
            results=[],
            mc_rows=[DiffRow("x", 0.0, 1.0, 0.1)],
            mutation_detected=True,
            mutation_clean=True,
        )
        assert not report.ok
        assert "overall: FAIL" in conformance_report(report)

    def test_nan_cells_render_as_dash(self):
        row = DiffRow("censored", float("nan"), float("nan"), 1.0)
        report = ConformanceReport(
            results=[],
            mc_rows=[row],
            mutation_detected=True,
            mutation_clean=True,
        )
        text = conformance_report(report)
        assert "nan" not in text
