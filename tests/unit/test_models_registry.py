"""Unit tests for the timing-model registry."""

import numpy as np
import pytest

from repro.models.matrix import full_matrix
from repro.models.registry import MODELS, get_model, model_names


class TestRegistry:
    def test_all_models_present(self):
        assert set(model_names()) == {"ES", "LM", "WLM", "WLM_SIM", "AFM", "GS"}

    def test_decision_round_counts_match_paper(self):
        # Section 4: 3 for ES [14], 3 for LM [19], 4 for WLM (stable
        # leader, Section 3), 7 for simulated WLM (Appendix B), 5 for AFM.
        # GS (post-paper): its rounds are LM rounds with a static hub
        # leader, so the 3-round LM algorithm applies.
        expected = {"ES": 3, "LM": 3, "WLM": 4, "WLM_SIM": 7, "AFM": 5, "GS": 3}
        for name, rounds in expected.items():
            assert MODELS[name].decision_rounds == rounds

    def test_wlm_is_the_only_linear_message_model(self):
        linear = [m.name for m in MODELS.values() if m.stable_message_complexity == "linear"]
        assert linear == ["WLM"]

    def test_leader_requirements(self):
        assert not MODELS["ES"].needs_leader
        assert not MODELS["AFM"].needs_leader
        assert MODELS["LM"].needs_leader
        assert MODELS["WLM"].needs_leader
        assert MODELS["WLM_SIM"].needs_leader
        # GS's leader is the statically designated hub, not a parameter.
        assert not MODELS["GS"].needs_leader
        assert MODELS["GS"].hub == 0

    def test_get_model_case_insensitive(self):
        assert get_model("wlm") is MODELS["WLM"]

    def test_get_model_unknown_raises(self):
        with pytest.raises(KeyError):
            get_model("nope")

    def test_satisfied_requires_leader_for_leader_models(self):
        with pytest.raises(ValueError):
            MODELS["WLM"].satisfied(full_matrix(4))

    def test_satisfied_dispatch(self):
        m = full_matrix(4)
        assert MODELS["ES"].satisfied(m)
        assert MODELS["AFM"].satisfied(m)
        assert MODELS["WLM"].satisfied(m, leader=0)
        assert MODELS["WLM_SIM"].satisfied(m, leader=0)

    @pytest.mark.parametrize("name", ["ES", "AFM", "GS"])
    def test_leaderless_models_ignore_a_leader_argument(self, name):
        # Callers pass the run's leader whatever the model; deciding
        # whether it matters is the model's job, not the call site's.
        rng = np.random.default_rng(5)
        # Per-round delivery probability in [0.6, 1]: every model sees
        # both satisfying and failing rounds.
        matrices = rng.random((200, 5, 5)) < rng.uniform(0.6, 1.0, (200, 1, 1))
        model = MODELS[name]
        bare = model.satisfied_batch(matrices)
        assert 0 < bare.sum() < len(bare)  # the stack tells rounds apart
        for leader in range(5):
            assert np.array_equal(model.satisfied_batch(matrices, leader=leader), bare)
            assert [model.satisfied(m, leader=leader) for m in matrices] == list(bare)

    def test_wlm_sim_shares_wlm_predicate(self):
        from repro.models.matrix import empty_matrix

        m = empty_matrix(5)
        m[:, 0] = True
        m[0, 1] = True
        m[0, 2] = True
        assert MODELS["WLM"].satisfied(m, leader=0) == MODELS["WLM_SIM"].satisfied(
            m, leader=0
        )
