"""Sweep configurations for the measurement experiments.

``PAPER`` mirrors the paper's protocol: 8 nodes, 300 communication rounds
per run, 33 runs per timeout, decision time measured from 15 random start
points per run.  ``QUICK`` shrinks repetitions (not the physics) so the
whole benchmark suite runs in seconds; the shape conclusions are the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.models.registry import MODELS
from repro.sim.rng import derive_seed

#: Presentation order of the measured models.
MEASURED_MODELS = ("ES", "AFM", "LM", "WLM")


@dataclass(frozen=True)
class SweepConfig:
    """Parameters of one measurement sweep.

    Attributes:
        n: number of nodes (the paper uses 8 everywhere).
        rounds_per_run: communication rounds per run (paper: 300).
        runs: independent repetitions per timeout (paper: 33).
        start_points: random decision-measurement start points per run
            (paper: 15).
        timeouts: the timeout grid, in seconds.
        seed: root seed; each (timeout, run) derives its own stream.
    """

    n: int = 8
    rounds_per_run: int = 300
    runs: int = 33
    start_points: int = 15
    timeouts: Sequence[float] = field(default_factory=tuple)
    seed: int = 2007

    def __post_init__(self) -> None:
        # A sweep measures nothing on an empty grid or without runs, and
        # a NaN or non-positive timeout reads every message late: the
        # figures would draw p = 0 and NaN decision rounds, or die in
        # ``summarize`` after the whole sweep was sampled.
        for name, low in (("n", 2), ("runs", 1), ("start_points", 0)):
            value = getattr(self, name)
            if value < low:
                raise ValueError(f"{name} must be at least {low}, got {value!r}")
        # The window scan needs a round past the longest decision window
        # of a measured model: a shorter run would be sampled, then fail.
        model = max(
            (MODELS[measured] for measured in MEASURED_MODELS),
            key=lambda candidate: candidate.decision_rounds,
        )
        if self.rounds_per_run <= model.decision_rounds:
            raise ValueError(
                f"rounds_per_run must be at least {model.decision_rounds + 1}, "
                f"one past {model.display_name}'s {model.decision_rounds}-round "
                f"decision window, got {self.rounds_per_run!r}"
            )
        if not len(self.timeouts):
            raise ValueError(f"timeouts must not be empty, got {self.timeouts!r}")
        for index, timeout in enumerate(self.timeouts):
            if not (math.isfinite(timeout) and timeout > 0):
                raise ValueError(
                    f"timeouts must be finite and positive, got {timeout!r}"
                )
            # A sweep keys its runs by timeout: a repeat leaves one key,
            # and both table rows would read the last one's runs.
            if timeout in self.timeouts[:index]:
                raise ValueError(f"timeouts must be distinct, got {timeout!r} twice")

    def run_seed(
        self, timeout_index: int, run_index: int, purpose: str = "trace"
    ) -> int:
        """A deterministic per-(timeout, run, purpose) seed.

        Derived by hashing, not a linear combination: linear schemes
        (``seed * K + i * L + j``) collide across cells and figures for
        unlucky root seeds, silently correlating "independent" runs.
        Distinct ``purpose`` strings (e.g. ``"trace"`` for latency
        sampling, ``"decision"`` for start-point draws) give distinct
        streams for the same cell.
        """
        return derive_seed(
            self.seed, f"{purpose}:cell:{timeout_index}:{run_index}"
        )


#: WAN timeout grid (seconds) spanning the paper's 140-350 ms range.
WAN_TIMEOUTS = (0.14, 0.15, 0.16, 0.17, 0.18, 0.20, 0.21, 0.23, 0.26, 0.30, 0.35)

#: LAN timeout grid (seconds): 0.1 ms to 1.8 ms.
LAN_TIMEOUTS = (
    0.0001,
    0.00015,
    0.0002,
    0.00025,
    0.00035,
    0.0005,
    0.0007,
    0.0009,
    0.0012,
    0.0016,
)

PAPER = SweepConfig(
    rounds_per_run=300, runs=33, start_points=15, timeouts=WAN_TIMEOUTS
)

QUICK = SweepConfig(
    rounds_per_run=120, runs=6, start_points=6, timeouts=WAN_TIMEOUTS
)

PAPER_LAN = SweepConfig(
    rounds_per_run=100, runs=33, start_points=15, timeouts=LAN_TIMEOUTS
)

QUICK_LAN = SweepConfig(
    rounds_per_run=100, runs=6, start_points=6, timeouts=LAN_TIMEOUTS
)
