"""Unit tests for sweep configurations, chiefly seed derivation."""

import numpy as np
import pytest

from repro.experiments import figures
from repro.experiments.config import PAPER, PAPER_LAN, QUICK, SweepConfig
from repro.net.lan import LanProfile
from repro.net.planetlab import PlanetLabProfile
from repro.sim.rng import derive_seed


class TestRunSeed:
    def test_deterministic(self):
        config = SweepConfig(timeouts=(0.1, 0.2), seed=5)
        assert config.run_seed(1, 2) == config.run_seed(1, 2)

    def test_distinct_across_cells(self):
        config = SweepConfig(timeouts=(0.1, 0.2, 0.3), seed=5)
        seeds = {
            config.run_seed(t, r) for t in range(3) for r in range(100)
        }
        assert len(seeds) == 300

    def test_distinct_across_purposes(self):
        config = SweepConfig(timeouts=(0.1,), seed=5)
        assert config.run_seed(0, 0) != config.run_seed(0, 0, purpose="decision")

    def test_no_linear_collisions_across_root_seeds(self):
        # The old linear scheme (seed * 1_000_003 + t * 1_009 + r) made
        # cell (t, r) of root seed s collide with cell (t, r') of root
        # seed s +/- 1 whenever the offsets aligned.  Hashed derivation
        # keeps neighbouring root seeds fully disjoint.
        a = SweepConfig(timeouts=(0.1,) * 4, seed=2007)
        b = SweepConfig(timeouts=(0.1,) * 4, seed=2008)
        seeds_a = {a.run_seed(t, r) for t in range(4) for r in range(50)}
        seeds_b = {b.run_seed(t, r) for t in range(4) for r in range(50)}
        assert not seeds_a & seeds_b

    def test_routed_through_shared_derivation(self):
        config = SweepConfig(timeouts=(0.1,), seed=5)
        assert config.run_seed(0, 1) == derive_seed(5, "trace:cell:0:1")

    def test_quick_config_shape(self):
        assert QUICK.n == 8
        assert QUICK.runs == 6


class TestLanAndWanCellsDrawIndependently:
    """``PAPER`` and ``PAPER_LAN`` share a root seed, so a LAN cell whose
    trace seed does not name its profile draws the WAN cell's normals on
    every link: the two sweeps were one sample seen twice."""

    @pytest.mark.parametrize("t_index,r_index", [(0, 0), (2, 7)])
    def test_same_cell_indices_draw_independent_bodies(
        self, monkeypatch, t_index, r_index
    ):
        assert PAPER.seed == PAPER_LAN.seed
        drawn = {}
        sample = figures.cached_trace

        def recording(profile, n, rounds, timeout, seed):
            drawn[profile] = seed, sample(profile, n, rounds, timeout, seed)
            return drawn[profile][1]

        monkeypatch.setattr(figures, "cached_trace", recording)
        figures.lan_cell(PAPER_LAN, t_index, r_index)
        figures.wan_cell(PAPER, t_index, r_index)
        bodies = []
        for profile, factory in (("lan", LanProfile), ("wan", PlanetLabProfile)):
            seed, trace = drawn[profile]
            model = factory(seed=seed)
            links = ~np.eye(model.n, dtype=bool)
            latency = trace[:PAPER_LAN.rounds_per_run][:, links]
            # The standard normal behind each log-normal body.
            bodies.append(
                np.log(latency / model.base[links]) / model.sigma[links]
            )
        # Tails, losses and slow windows aside, shared normals make most
        # bodies equal to the last bits; independent ones make none.
        shared = np.isclose(bodies[0], bodies[1], rtol=0.0, atol=1e-9)
        assert shared.mean() < 0.01


class TestSweepConfigRejectsWhatASweepCannotMeasure:
    """A NaN or non-positive timeout read every message late (figures of
    p = 0 with NaN decision rounds), and ``runs=0`` died in ``summarize``
    only after the whole sweep was sampled: each is refused up front,
    naming the field and the value."""

    @pytest.mark.parametrize(
        "timeout", [float("nan"), float("inf"), 0.0, -0.1]
    )
    def test_timeout_must_be_finite_and_positive(self, timeout):
        with pytest.raises(ValueError, match=rf"timeouts.*{timeout!r}"):
            SweepConfig(runs=2, timeouts=(0.2, timeout))

    def test_timeout_grid_must_not_be_empty(self):
        with pytest.raises(ValueError, match=r"timeouts.*\(\)"):
            SweepConfig(runs=2, timeouts=())

    @pytest.mark.parametrize(
        "field,value",
        [("runs", 0), ("n", 1), ("rounds_per_run", 0), ("start_points", -1)],
    )
    def test_counts_below_their_floor(self, field, value):
        with pytest.raises(ValueError, match=rf"{field}.*{value}"):
            SweepConfig(timeouts=(0.2,), **{field: value})

    def test_the_floors_themselves_are_accepted(self):
        config = SweepConfig(
            n=2, rounds_per_run=1, runs=1, start_points=0, timeouts=(1e-6,)
        )
        assert config.runs == 1
