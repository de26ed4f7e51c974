"""End-to-end: adaptive model selection inside the live SMR stack.

The churn scenario of :mod:`repro.adaptive.scenario` is the tentpole
claim — an online extractor plus a switching policy beats every fixed
(model, timeout) configuration on decision latency, with invariants
checked across every switch boundary.  The scenario is fully
deterministic in its seed, so these assertions are exact.
"""

import numpy as np
import pytest

from repro.adaptive import (
    AdaptivePolicy,
    FixedPolicy,
    ScenarioConfig,
    TimelinessExtractor,
    granular_scenario_config,
    run_adaptive_scenario,
)
from repro.adaptive.scenario import faulted_latencies
from repro.check.invariants import default_suite
from repro.consensus import AfmConsensus
from repro.faults import Crash, FaultPlan
from repro.giraf.oracle import NullOracle
from repro.giraf.schedule import MatrixSchedule
from repro.models.matrix import full_matrix
from repro.smr.command import Command
from repro.smr.replica import ReplicaGroup
from repro.smr.statemachine import KVStore


@pytest.fixture(scope="module")
def comparison():
    return run_adaptive_scenario(ScenarioConfig())


class TestChurnScenario:
    def test_adaptive_beats_every_fixed_pair(self, comparison):
        best = comparison.best_fixed
        assert comparison.adaptive.mean_latency < best.mean_latency
        assert comparison.regret_seconds < 0

    def test_the_policy_actually_switched(self, comparison):
        assert comparison.adaptive.switches >= 1
        # ... and ended up somewhere other than where it started: the
        # scenario's churn forces at least one timeout retune.
        timeouts = {s.timeout for s in comparison.adaptive.timeline}
        assert len(timeouts) >= 2

    def test_no_invariant_violations_anywhere(self, comparison):
        assert comparison.total_violations == 0

    def test_every_policy_decided_the_full_workload(self, comparison):
        assert comparison.adaptive.decided_all
        assert comparison.adaptive.consistent
        for name, report in comparison.baselines.items():
            assert report.decided_all, name
            assert report.consistent, name

    def test_fixed_baselines_never_switch(self, comparison):
        assert all(r.switches == 0 for r in comparison.baselines.values())

    def test_short_timeouts_stall_through_the_slow_phase(self, comparison):
        # The separation the scenario is built on: at the short timeouts
        # the degraded mesh decides nothing, so their mean is dominated
        # by queueing; the adaptive run stays well clear of it.
        for name, report in comparison.baselines.items():
            if name.endswith("@0.16"):
                assert report.mean_latency > 3 * comparison.adaptive.mean_latency

    def test_deterministic_in_the_seed(self, comparison):
        again = run_adaptive_scenario(ScenarioConfig())
        assert again.adaptive.latencies == comparison.adaptive.latencies
        assert again.adaptive.timeline == comparison.adaptive.timeline
        assert {k: v.mean_latency for k, v in again.baselines.items()} == {
            k: v.mean_latency for k, v in comparison.baselines.items()
        }


@pytest.fixture(scope="module")
def granular_comparison():
    return run_adaptive_scenario(granular_scenario_config())


class TestGranularChurnScenario:
    """The same churn workload on a Granular Synchrony network: per-link
    sync/psync contracts make GS the cheapest holding model whenever the
    contracts are honoured, so the adaptive policy should find it."""

    def test_adaptive_selects_the_granular_model(self, granular_comparison):
        selected = {s.model for s in granular_comparison.adaptive.timeline}
        assert "GS" in selected

    def test_gs_cells_aim_omega_at_the_hub(self, granular_comparison):
        gs_switches = [
            s for s in granular_comparison.adaptive.timeline if s.model == "GS"
        ]
        assert gs_switches
        assert all(s.leader == 0 for s in gs_switches)

    def test_no_invariant_violations_anywhere(self, granular_comparison):
        assert granular_comparison.total_violations == 0

    def test_every_policy_decided_the_full_workload(self, granular_comparison):
        assert granular_comparison.adaptive.decided_all
        assert granular_comparison.adaptive.consistent
        for name, report in granular_comparison.baselines.items():
            assert report.decided_all, name
            assert report.consistent, name

    def test_gs_baseline_rides_the_contract(self, granular_comparison):
        # On the granular net GS@long-timeout must be at least as good as
        # the churn-era worst; the clamped links keep it decisive.
        gs = granular_comparison.baselines["GS@0.70"]
        assert gs.decided_all

    def test_churn_still_bites_the_short_timeouts(self, granular_comparison):
        # Slow factors multiply the *clamped* latencies, so the psync
        # contract is effectively violated pre-heal at 0.16s: the short
        # fixed pairs must pay for the stall, contracts notwithstanding.
        short = granular_comparison.baselines["GS@0.16"]
        long = granular_comparison.baselines["GS@0.70"]
        assert short.mean_latency > long.mean_latency

    def test_deterministic_in_the_seed(self, granular_comparison):
        again = run_adaptive_scenario(granular_scenario_config())
        assert again.adaptive.latencies == granular_comparison.adaptive.latencies
        assert again.adaptive.timeline == granular_comparison.adaptive.timeline


class TestFaultedLatencies:
    def test_an_instant_on_a_tick_boundary_reads_its_own_round(self):
        """Instant 0.6 at tick 0.2 starts plan round 4, but in floats
        0.6 / 0.2 is 2.9999999999999996: a floor of the raw quotient
        read round 3, and pid 1's crash at round 4 came a round late."""
        plan = FaultPlan(n=3, crashes=(Crash(pid=1, at_round=4),))
        base = np.full((3, 3), 0.05)
        assert np.isfinite(faulted_latencies(base, plan, 0.6 - 1e-9, 0.2)).all()
        latencies = faulted_latencies(base, plan, 0.6, 0.2)
        assert np.isinf(latencies[1, 0]) and np.isinf(latencies[0, 1])
        assert latencies[0, 2] == 0.05


class TestReplicaGroupHooks:
    """The SMR-layer seams the adaptive stack plugs into."""

    def make_group(self, n=4, policy=None, invariant_factory=None):
        return ReplicaGroup(
            n,
            lambda pid, n_, proposal: AfmConsensus(pid, n_, proposal),
            NullOracle(),
            lambda slot: MatrixSchedule([full_matrix(n)] * 30),
            KVStore,
            max_rounds_per_instance=30,
            policy=policy,
            invariant_factory=invariant_factory,
        )

    def test_policy_begin_slot_runs_before_schedule_factory(self):
        """The one ordering the scenario depends on: a schedule built for
        a slot must see the timeout the policy chose for that slot."""
        n = 4

        class RetuningPolicy(FixedPolicy):
            def begin_slot(self, slot):
                self.timeout = 0.1 * (slot + 1)

        policy = RetuningPolicy("AFM", 0.05)
        seen = []

        def schedule_factory(slot):
            seen.append((slot, policy.timeout))
            return MatrixSchedule([full_matrix(n)] * 30)

        group = ReplicaGroup(
            n,
            lambda pid, n_, proposal: AfmConsensus(pid, n_, proposal),
            NullOracle(),
            schedule_factory,
            KVStore,
            max_rounds_per_instance=30,
            policy=policy,
        )
        group.submit(0, Command(client_id=1, seq=0, op=("set", "k", "v")))
        group.run_until_drained(max_slots=5)
        assert seen[0] == (0, pytest.approx(0.1))

    def test_policy_swaps_the_algorithm_factory(self):
        probes = []

        class ProbePolicy(FixedPolicy):
            @property
            def algorithm_factory(self):
                factory = super().algorithm_factory

                def probed(pid, n, proposal):
                    probes.append(self.model)
                    return factory(pid, n, proposal)

                return probed

        group = self.make_group(policy=ProbePolicy("AFM", 0.1))
        group.submit(0, Command(client_id=1, seq=0, op=("set", "k", "v")))
        group.run_until_drained(max_slots=5)
        assert probes and all(model == "AFM" for model in probes)

    def test_invariant_factory_builds_a_fresh_suite_per_slot(self):
        slots = []
        group = self.make_group(
            invariant_factory=lambda slot: (
                slots.append(slot) or default_suite()
            )
        )
        for i in range(3):
            group.submit(0, Command(client_id=1, seq=i, op=("set", "k", str(i))))
        group.run_until_drained(max_slots=10)
        assert slots == list(range(len(slots)))
        assert len(slots) == group.instances_run
        # Different slots decide different commands; a per-slot suite
        # must not read that as an agreement violation.
        assert group.violations == []


class TestLiveExtraction:
    """The extractor fed from the event stack's batched hot path."""

    @pytest.fixture(scope="class")
    def live(self):
        from repro.adaptive import run_live_extraction

        return run_live_extraction(ScenarioConfig())

    def test_churn_plan_rides_the_batch_path(self, live):
        assert live.executed_mode == "batch", live.fallback_reason
        assert live.fallback_reason is None

    def test_extractor_saw_the_full_window(self, live):
        assert live.window_rounds == ScenarioConfig().window

    def test_post_heal_window_recommends_something(self, live):
        # The run ends well past the heal point, so at least one
        # (model, timeout) cell must have held in the final window.
        assert live.recommendation is not None

    def test_report_renders(self, live):
        from repro.adaptive import render_live_extraction

        text = render_live_extraction(live)
        assert "executed mode: batch" in text
