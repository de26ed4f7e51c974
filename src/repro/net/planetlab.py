"""The synthetic PlanetLab profile (Section 5.3 substitute).

The paper deployed GIRAF on 8 PlanetLab nodes: Switzerland, Japan,
California, Georgia (US), China, Poland, United Kingdom, and Sweden.  This
profile reproduces that topology synthetically, with the three structural
features the paper's WAN observations hinge on:

1. **A genuinely well-connected UK node.**  The paper selected the UK node
   as leader by ping measurements; here its links have the lowest base
   latencies and the smallest tail probability, which is what makes
   ``P_WLM`` ≫ ``P_LM`` ≫ ``P_AFM`` at short timeouts (paper: 0.94 /
   0.79 / 0.4 at 160 ms).

2. **Congested Chinese egress.**  China's *outgoing* links ride congested
   international gateways: their base latency sits right at the
   interesting timeout range (~150-170 ms) with high jitter, so at a
   160 ms timeout roughly half of China's messages are late.  One process
   failing to be a majority-source kills an ◊AFM round but not an ◊LM or
   ◊WLM round — exactly the asymmetry the paper measured.

3. **An occasionally slow Poland node.**  In a random subset of runs,
   Poland is "slow to receive messages, although most of the messages it
   sent arrived on time": periodic windows multiply Poland's *incoming*
   latencies, dropping its row below a majority and killing ◊LM (and
   ◊AFM) rounds while UK's nearby link to Poland stays timely, so ◊WLM
   survives.  Because only some runs are affected, ◊LM's per-run
   satisfaction has high variance at short timeouts (paper Figure 1(f)).

Everything else is the usual WAN texture: log-normal bodies, Pareto tail
excursions (maxima orders of magnitude above the median [4, 6]), and a
little UDP loss.

Calibration targets (paper Figure 1(d)): timeout 160 ms -> p ~ 0.88,
170 ms -> 0.90, 200 ms -> 0.95, 210 ms -> 0.96, approaching ~0.99 for very
long timeouts.
"""

from __future__ import annotations

import numpy as np

from repro.net.hetero import HeterogeneousNetwork, SlowWindows

#: Site order used throughout the WAN experiments.
PLANETLAB_SITES = (
    "Switzerland",
    "Japan",
    "California",
    "Georgia",
    "China",
    "Poland",
    "UK",
    "Sweden",
)

CH, JP, CA, GA, CN, PL, UK, SE = range(8)

#: Index of the slow node (Poland) and the designated leader (UK).
SLOW_NODE = PL
LEADER_NODE = UK


def _base_latency_matrix() -> np.ndarray:
    """One-way base latencies in seconds (diagonal 0).

    Mostly symmetric, except China: its *incoming* links are ordinary
    long-haul paths while its *outgoing* links carry an egress congestion
    surcharge (see the module docstring).
    """
    ms = 1e-3
    base = np.zeros((8, 8))

    def set_pair(i: int, j: int, value_ms: float) -> None:
        base[i, j] = base[j, i] = value_ms * ms

    # Europe cluster.
    set_pair(CH, UK, 16)
    set_pair(CH, PL, 21)
    set_pair(CH, SE, 26)
    set_pair(UK, PL, 26)
    set_pair(UK, SE, 21)
    set_pair(PL, SE, 19)
    # Transatlantic to Georgia (US southeast).
    set_pair(UK, GA, 54)
    set_pair(CH, GA, 60)
    set_pair(PL, GA, 66)
    set_pair(SE, GA, 62)
    # Transatlantic + transcontinental to California.
    set_pair(UK, CA, 76)
    set_pair(CH, CA, 84)
    set_pair(PL, CA, 92)
    set_pair(SE, CA, 88)
    # Inside the US.
    set_pair(CA, GA, 34)
    # Japan.
    set_pair(JP, CA, 62)
    set_pair(JP, GA, 100)
    set_pair(JP, UK, 128)
    set_pair(JP, CH, 126)
    set_pair(JP, PL, 130)
    set_pair(JP, SE, 128)
    # China: ordinary inbound latencies...
    set_pair(CN, JP, 58)
    set_pair(CN, CA, 95)
    set_pair(CN, GA, 115)
    set_pair(CN, UK, 131)
    set_pair(CN, CH, 130)
    set_pair(CN, PL, 133)
    set_pair(CN, SE, 132)
    # ... but congested egress: everything China *sends* (column CN) pays
    # a surcharge that puts it right at the 150-170 ms timeout range.
    egress_floor = 152 * ms
    for dst in range(8):
        if dst != CN:
            base[dst, CN] = max(base[dst, CN], egress_floor) + (dst % 3) * 4 * ms
    return base


#: The site matrix is the same for every run; each profile takes a copy.
_BASE_LATENCY = _base_latency_matrix()


class PlanetLabProfile(HeterogeneousNetwork):
    """Synthetic 8-site PlanetLab latency model."""

    def __init__(
        self,
        seed: int = 0,
        sigma: float = 0.09,
        china_sigma: float = 0.16,
        tail_prob: float = 0.05,
        leader_tail_prob: float = 0.012,
        tail_shape: float = 1.05,
        loss_prob: float = 0.004,
        slow_run_prob: float = 0.6,
        slow_factor: float = 2.8,
        slow_duty: float = 0.4,
        slow_period: float = 25.0,
    ) -> None:
        base = _BASE_LATENCY.copy()
        n = base.shape[0]
        sigmas = np.full((n, n), sigma)
        sigmas[:, CN] = china_sigma  # China's egress jitters hard
        tails = np.full((n, n), tail_prob)
        tails[:, UK] = leader_tail_prob  # the well-connected leader...
        tails[UK, :] = leader_tail_prob  # ...rarely sees excursions
        # Whether *this run* suffers the slow Poland node is itself random
        # across runs (the paper saw it "for several runs").
        decider = np.random.default_rng((seed, 0x51C6))
        self.slow_run = bool(decider.random() < slow_run_prob)
        slow_nodes = {}
        if self.slow_run:
            slow_nodes[SLOW_NODE] = SlowWindows(
                factor=slow_factor,
                period=slow_period,
                duty=slow_duty,
                phase=float(decider.random() * slow_period),
            )
        super().__init__(
            base=base,
            sigma=sigmas,
            tail_prob=tails,
            tail_shape=tail_shape,
            loss_prob=np.full((n, n), loss_prob),
            slow_nodes=slow_nodes,
            seed=seed,
        )
        self.sites = PLANETLAB_SITES
        self.leader_node = LEADER_NODE
        self.slow_node = SLOW_NODE


def planetlab_profile(seed: int = 0, **overrides) -> PlanetLabProfile:
    """Construct the default synthetic PlanetLab profile."""
    return PlanetLabProfile(seed=seed, **overrides)
