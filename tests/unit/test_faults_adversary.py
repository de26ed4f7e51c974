"""Unit tests for the eventually stabilizing message adversary."""

import numpy as np
import pytest

from repro.analysis.equations import expected_rounds_exact, p_wlm
from repro.analysis.stabilization import (
    predicted_decision_round,
    simulate_adversary_decision_rounds,
)
from repro.faults import StabilityWindowAdversary
from repro.models import get_model
from repro.models.matrix import majority
from repro.sim.rng import derive_seed


def make_adversary(**kwargs):
    defaults = dict(n=8, gsr_round=25, window_length=3, window_period=8)
    defaults.update(kwargs)
    return StabilityWindowAdversary(**defaults)


class TestValidation:
    def test_needs_three_processes(self):
        with pytest.raises(ValueError):
            make_adversary(n=2)

    def test_rounds_are_one_based(self):
        with pytest.raises(ValueError):
            make_adversary(gsr_round=0)

    def test_windows_must_be_separated(self):
        with pytest.raises(ValueError):
            make_adversary(window_length=8, window_period=8)

    def test_component_must_leave_a_complement(self):
        with pytest.raises(ValueError):
            make_adversary(component_size=8)

    def test_root_in_range(self):
        with pytest.raises(ValueError):
            make_adversary(root=8)

    def test_suppression_is_a_probability(self):
        with pytest.raises(ValueError):
            make_adversary(suppression_prob=1.5)

    def test_default_component_is_a_majority(self):
        assert make_adversary().resolved_component_size == majority(8)


class TestWindows:
    def test_every_window_fits_before_gsr(self):
        adversary = make_adversary()
        for start, members in adversary.windows():
            assert start + adversary.window_length <= adversary.gsr_round

    def test_windows_are_periodic(self):
        adversary = make_adversary()
        starts = [start for start, _ in adversary.windows()]
        assert starts == [1, 9, 17]

    def test_root_in_every_component(self):
        adversary = make_adversary(root=3)
        for _, members in adversary.windows():
            assert 3 in members

    def test_membership_is_vertex_stable_and_seed_deterministic(self):
        first = make_adversary(seed=5).windows()
        second = make_adversary(seed=5).windows()
        assert first == second
        other = make_adversary(seed=6).windows()
        assert [m for _, m in first] != [m for _, m in other]

    def test_component_sizes(self):
        adversary = make_adversary(component_size=4)
        for _, members in adversary.windows():
            assert len(members) == 4


class TestPlanCompilation:
    def test_pre_gsr_rounds_are_fully_covered(self):
        adversary = make_adversary()
        plan = adversary.to_plan()
        window_rounds = {
            start + offset
            for start, _ in adversary.windows()
            for offset in range(adversary.window_length)
        }
        for k in range(1, adversary.gsr_round):
            mask = plan.mask(k)
            off_diagonal = ~np.eye(adversary.n, dtype=bool)
            if k in window_rounds:
                # Partition round: cross-component links masked, the
                # component's internal links untouched.
                start, members = next(
                    (s, m)
                    for s, m in adversary.windows()
                    if s <= k < s + adversary.window_length
                )
                inside = np.zeros(adversary.n, dtype=bool)
                inside[list(members)] = True
                cross = np.logical_xor.outer(inside, inside)
                assert mask[cross & off_diagonal].all()
                internal = np.logical_and.outer(inside, inside) & off_diagonal
                assert not mask[internal].any()
            else:
                # Suppressed round: everything off-diagonal dropped.
                assert mask[off_diagonal].all()
            assert not np.diag(mask).any()

    def test_quiet_from_gsr_on(self):
        adversary = make_adversary()
        plan = adversary.to_plan()
        assert plan.quiet_after() == adversary.gsr_round - 1
        assert not plan.mask(adversary.gsr_round).any()

    def test_plan_is_deterministic_in_the_seed(self):
        one = make_adversary(seed=9).to_plan()
        two = make_adversary(seed=9).to_plan()
        assert one == two

    def test_leaky_suppression_carries_the_probability(self):
        plan = make_adversary(suppression_prob=0.4).to_plan()
        assert all(burst.drop_prob == 0.4 for burst in plan.loss_bursts)


class TestPredictions:
    def test_prediction_composes_gsr_and_run_length(self):
        adversary = make_adversary(gsr_round=30)
        p_m = float(p_wlm(0.97, 8))
        predicted = predicted_decision_round(adversary, p_m, "WLM")
        assert predicted == pytest.approx(
            29 + float(expected_rounds_exact(p_m, 4))
        )

    def test_simulation_matches_prediction(self):
        adversary = make_adversary(gsr_round=25)
        p = 0.97
        p_m = float(p_wlm(p, 8))
        rounds = simulate_adversary_decision_rounds(
            adversary, p, "WLM", runs=150, seed=2, leader=0
        )
        predicted = predicted_decision_round(adversary, p_m, "WLM")
        sigma = rounds.std(ddof=1) / np.sqrt(len(rounds))
        assert abs(rounds.mean() - predicted) <= 4 * sigma + 0.5

    def test_no_decision_before_gsr(self):
        adversary = make_adversary()
        rounds = simulate_adversary_decision_rounds(
            adversary, 0.99, "WLM", runs=50, seed=1, leader=0
        )
        assert (rounds >= adversary.gsr_round).all()

    def test_the_growing_block_reads_the_prefix_of_one_big_draw(self):
        # The reference: one 4096-round draw per run, masked and scanned
        # whole — what the simulation did before it drew in doubling blocks.
        adversary = make_adversary(gsr_round=25)
        plan, model = adversary.to_plan(), get_model("WLM")
        expected = []
        for index in range(12):
            rng = np.random.default_rng(
                derive_seed(4, f"stabilization:WLM:{adversary.seed}:{index}")
            )
            matrices = rng.random((4096, 8, 8)) < 0.9
            for k in range(1, plan.quiet_after() + 1):
                matrices[k - 1] &= ~plan.mask(k)
            held = model.satisfied_batch(matrices, leader=0)
            run = np.convolve(held, np.ones(4, dtype=int), "valid")
            expected.append(int(np.flatnonzero(run == 4)[0]) + 4)
        rounds = simulate_adversary_decision_rounds(
            adversary, 0.9, "WLM", runs=12, seed=4, leader=0
        )
        assert rounds.tolist() == expected
        assert max(expected) > 64  # some run needed more than one block

    def test_simulation_is_deterministic(self):
        adversary = make_adversary()
        one = simulate_adversary_decision_rounds(
            adversary, 0.97, "GS", runs=20, seed=3
        )
        two = simulate_adversary_decision_rounds(
            adversary, 0.97, "GS", runs=20, seed=3
        )
        assert np.array_equal(one, two)
