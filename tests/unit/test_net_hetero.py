"""Unit tests for the heterogeneous network model."""

import numpy as np
import pytest

from repro.net.hetero import HeterogeneousNetwork, SlowWindows


def tiny_network(**overrides):
    n = 4
    base = np.full((n, n), 0.05)
    np.fill_diagonal(base, 0.0)
    defaults = dict(
        base=base,
        sigma=np.zeros((n, n)),
        tail_prob=np.zeros((n, n)),
        loss_prob=None,
        slow_nodes=None,
        seed=3,
    )
    defaults.update(overrides)
    return HeterogeneousNetwork(**defaults)


class TestHeterogeneousNetwork:
    def test_zero_jitter_returns_base(self):
        net = tiny_network()
        assert net.sample_latency(0, 1, 0.0) == pytest.approx(0.05)

    def test_matrix_orientation_dst_src(self):
        base = np.full((4, 4), 0.05)
        np.fill_diagonal(base, 0.0)
        base[2, 1] = 0.5  # the 1 -> 2 link is slow
        net = tiny_network(base=base)
        assert net.sample_latency(1, 2, 0.0) == pytest.approx(0.5)
        assert net.sample_latency(2, 1, 0.0) == pytest.approx(0.05)
        lat = net.sample_round_latencies(0.0)
        assert lat[2, 1] == pytest.approx(0.5)
        assert lat[1, 2] == pytest.approx(0.05)

    def test_round_matrix_diagonal_zero(self):
        lat = tiny_network().sample_round_latencies(0.0)
        assert (np.diagonal(lat) == 0.0).all()

    def test_loss_becomes_inf_in_matrix(self):
        net = tiny_network(loss_prob=np.full((4, 4), 1.0))
        lat = net.sample_round_latencies(0.0)
        off = ~np.eye(4, dtype=bool)
        assert np.isinf(lat[off]).all()

    def test_loss_becomes_none_single_message(self):
        net = tiny_network(loss_prob=np.full((4, 4), 1.0))
        assert net.sample_latency(0, 1, 0.0) is None

    def test_slow_windows_inflate_incoming_rows(self):
        slow = {2: SlowWindows(factor=10.0, period=10.0, duty=0.5)}
        net = tiny_network(slow_nodes=slow)
        in_window = net.sample_round_latencies(1.0)
        out_window = net.sample_round_latencies(7.0)
        assert in_window[2, 0] == pytest.approx(0.5)  # inflated incoming
        assert in_window[0, 2] == pytest.approx(0.05)  # outgoing untouched
        assert out_window[2, 0] == pytest.approx(0.05)

    def test_tail_probability_matrix_respected(self):
        tails = np.zeros((4, 4))
        tails[1, 0] = 1.0  # only the 0 -> 1 link has excursions
        net = tiny_network(tail_prob=tails)
        lat = net.sample_round_latencies(0.0)
        assert lat[1, 0] > 0.05
        assert lat[0, 1] == pytest.approx(0.05)

    def test_statistical_reproducibility_by_seed(self):
        sigma = np.full((4, 4), 0.2)
        a = tiny_network(sigma=sigma, seed=42).sample_round_latencies(0.0)
        b = tiny_network(sigma=sigma, seed=42).sample_round_latencies(0.0)
        assert np.allclose(a, b)

    def test_mean_rtt_symmetric_for_symmetric_base(self):
        net = tiny_network()
        rtt = net.mean_rtt()
        assert np.allclose(rtt, rtt.T)

    def test_nonpositive_base_rejected(self):
        base = np.zeros((3, 3))
        with pytest.raises(ValueError):
            HeterogeneousNetwork(
                base=base, sigma=0.1, tail_prob=0.0
            )


class TestSlowWindowsValidation:
    """Every field is checked at construction, so the scalar path
    (``active``: a ``ZeroDivisionError`` on the first message) and the
    batch path (``active_mask``: a NumPy warning, then "never slow") can
    no longer disagree about a malformed window."""

    @pytest.mark.parametrize(
        "field,value",
        [
            ("period", 0.0),
            ("period", -1.0),
            ("period", float("nan")),
            ("duty", 1.5),
            ("duty", -0.1),
            ("duty", float("nan")),
            ("phase", float("inf")),
            ("phase", float("nan")),
            ("factor", float("nan")),
            ("factor", -2.0),
            ("factor", 0.0),
            ("factor", float("inf")),
        ],
    )
    def test_malformed_field_is_named(self, field, value):
        with pytest.raises(ValueError, match=field):
            SlowWindows(**{field: value})

    def test_the_stock_windows_pass(self):
        SlowWindows()
        SlowWindows(factor=2.8, period=25.0, duty=0.4, phase=24.9)
        SlowWindows(period=0.002, duty=1.0, mode="queue", queue_unit=0.00025)


class TestModelParameterValidation:
    """The model's own parameters are the one ``LatencyModel`` boundary
    nothing downstream guards: a NaN ``sigma`` reaches a direct
    ``sample_trace_batch`` caller as NaN latencies that read "lost"."""

    @pytest.mark.parametrize(
        "name,value",
        [
            ("sigma", float("nan")),
            ("sigma", float("inf")),
            ("sigma", -0.1),
            ("tail_prob", 1.5),
            ("tail_prob", float("nan")),
            ("loss_prob", -0.2),
            ("loss_prob", 1.01),
        ],
    )
    def test_offending_link_and_model_are_named(self, name, value):
        matrix = np.full((4, 4), 0.1)
        matrix[3, 1] = value  # the 1 -> 3 link
        with pytest.raises(ValueError) as caught:
            tiny_network(**{name: matrix})
        message = str(caught.value)
        assert "HeterogeneousNetwork" in message
        assert name in message and "1->3" in message

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0])
    def test_a_base_latency_must_be_positive_and_finite(self, value):
        # A NaN base surfaced only at sampling time; +inf silently made
        # the link always lost.
        base = np.full((4, 4), 0.05)
        np.fill_diagonal(base, 0.0)
        base[3, 1] = value  # the 1 -> 3 link
        with pytest.raises(ValueError) as caught:
            tiny_network(base=base)
        message = str(caught.value)
        assert "HeterogeneousNetwork: base must be" in message
        assert "1->3" in message

    def test_diagonal_entries_are_not_links(self):
        sigma = np.full((4, 4), 0.1)
        np.fill_diagonal(sigma, np.nan)
        tiny_network(sigma=sigma)

    @pytest.mark.parametrize("shape", [0.0, -1.0, float("nan")])
    def test_tail_shape_must_be_positive(self, shape):
        with pytest.raises(ValueError, match="tail_shape"):
            tiny_network(tail_shape=shape)

    @pytest.mark.parametrize("node", [-1, 4, 1.5])
    def test_slow_node_must_be_a_node(self, node):
        with pytest.raises(ValueError, match="slow node"):
            tiny_network(slow_nodes={node: SlowWindows()})

    def test_subclass_is_named_in_its_own_message(self):
        from repro.net import lan_profile

        with pytest.raises(ValueError, match="LanProfile.*loss_prob"):
            lan_profile(loss_prob=1.2)
