"""Unit tests for the Bernoulli (IID) link model."""

import pytest

from repro.net.iid import BernoulliLinkModel


class TestBernoulliLinkModel:
    def test_timely_fraction_tracks_p(self):
        model = BernoulliLinkModel(6, p=0.75, timeout=0.1, seed=1)
        samples = [model.sample_latency(0, 1, 0.0) for _ in range(4000)]
        timely = sum(s < 0.1 for s in samples)
        assert 0.72 < timely / 4000 < 0.78

    def test_late_messages_bounded_by_late_factor(self):
        model = BernoulliLinkModel(4, p=0.0, timeout=0.1, seed=2, late_factor=3.0)
        samples = [model.sample_latency(0, 1, 0.0) for _ in range(100)]
        assert all(0.1 <= s <= 0.3 for s in samples)

    def test_loss(self):
        model = BernoulliLinkModel(4, p=0.5, timeout=0.1, seed=3, loss_prob=1.0)
        assert model.sample_latency(0, 1, 0.0) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            BernoulliLinkModel(4, p=2.0, timeout=0.1)
        with pytest.raises(ValueError):
            BernoulliLinkModel(4, p=0.5, timeout=0.0)
        with pytest.raises(ValueError):
            BernoulliLinkModel(4, p=0.5, timeout=0.1, late_factor=1.0)
        with pytest.raises(ValueError):
            BernoulliLinkModel(1, p=0.5, timeout=0.1)

    @pytest.mark.parametrize(
        "field", ["timeout", "late_factor"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_parameters_raise_naming_the_field(self, field, value):
        # A NaN timeout or late_factor passed the ``<=`` checks and made
        # every latency NaN.
        params = {"timeout": 0.1, "late_factor": 4.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must"):
            BernoulliLinkModel(4, p=0.5, **params)
