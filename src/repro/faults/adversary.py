"""Eventually stabilizing message adversaries (arxiv 1508.00851, 1602.05852).

The dynamic-network consensus literature models the network as an
adversary that picks a communication graph every round.  An *eventually
stabilizing* adversary may behave arbitrarily before an unknown
stabilization round (GSR), subject only to granting short windows in
which some *vertex-stable root component* — a fixed set of processes
whose internal communication survives the round — exists; from GSR on
the network is well behaved.

:class:`StabilityWindowAdversary` expresses that adversary in the
repo's declarative :class:`~repro.faults.plan.FaultPlan` vocabulary, so
one description drives the lockstep and event-driven stacks (and the
batched fast path's epoch segmentation) bit-reproducibly:

- outside the windows, pre-GSR rounds are covered by a
  :class:`~repro.faults.plan.LossBurst` dropping every off-diagonal
  message with ``suppression_prob``;
- each window becomes a :class:`~repro.faults.plan.Partition` whose
  first group is the window's root component (membership is
  vertex-stable for the window's duration and drawn from the adversary
  seed via :func:`~repro.sim.rng.derive_seed`);
- from ``gsr_round`` on, the plan is quiet.

Because the root component is a strict subset of the processes
(``component_size <= n - 1``) — or, even at majority size, leaves the
complement silenced — no run can decide *globally* before GSR: the
complement never hears a quorum.  Every algorithm's decision round is
therefore ``gsr_round`` plus its post-stabilization decision time,
which is what :func:`repro.analysis.stabilization` predicts and the
tier-2 guard checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.faults.plan import FaultPlan, LossBurst, Partition
from repro.models.matrix import majority
from repro.sim.rng import derive_seed


@dataclass(frozen=True)
class StabilityWindowAdversary:
    """An eventually stabilizing message adversary.

    Args:
        n: system size.
        gsr_round: first round (1-based) from which the adversary is
            quiet; all faults end at ``gsr_round - 1``.
        window_length: rounds per pre-GSR stability window.
        window_period: one window starts every this many rounds.
        component_size: size of each window's root component (defaults
            to a majority); must leave the complement non-empty.
        root: process contained in every root component.
        suppression_prob: per-message drop probability outside windows.
        seed: all membership draws derive from this via SHA-256.
    """

    n: int
    gsr_round: int
    window_length: int = 3
    window_period: int = 8
    component_size: Optional[int] = None
    root: int = 0
    suppression_prob: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError("a root component needs a non-empty complement; n >= 3")
        if self.gsr_round < 1:
            raise ValueError("rounds are 1-based")
        if self.window_length < 1:
            raise ValueError("windows must span at least one round")
        if self.window_period <= self.window_length:
            raise ValueError("windows must be separated by suppressed rounds")
        if not 0 <= self.root < self.n:
            raise ValueError(f"root {self.root} out of range")
        size = self.resolved_component_size
        if not 1 <= size <= self.n - 1:
            raise ValueError(
                f"component size {size} must leave the complement non-empty"
            )
        if not 0.0 <= self.suppression_prob <= 1.0:
            raise ValueError("suppression_prob must be a probability")

    @property
    def resolved_component_size(self) -> int:
        return (
            majority(self.n) if self.component_size is None else self.component_size
        )

    def windows(self) -> list[tuple[int, tuple[int, ...]]]:
        """``(start_round, members)`` of every pre-GSR stability window.

        Membership is vertex-stable per window and a pure function of
        ``(seed, window index)``: the root plus ``component_size - 1``
        others drawn without replacement.
        """
        size = self.resolved_component_size
        others = [pid for pid in range(self.n) if pid != self.root]
        windows = []
        index = 0
        while True:
            start = 1 + index * self.window_period
            if start + self.window_length > self.gsr_round:
                break
            rng = np.random.default_rng(
                derive_seed(self.seed, f"adversary:window:{index}")
            )
            picked = rng.choice(len(others), size=size - 1, replace=False)
            members = tuple(sorted([self.root] + [others[i] for i in picked]))
            windows.append((start, members))
            index += 1
        return windows

    def to_plan(self) -> FaultPlan:
        """The adversary as a :class:`FaultPlan` both stacks can execute."""
        windows = self.windows()
        partitions = tuple(
            Partition(
                groups=(
                    members,
                    tuple(p for p in range(self.n) if p not in members),
                ),
                start_round=start,
                heal_round=start + self.window_length,
            )
            for start, members in windows
        )
        # Suppression bursts fill every pre-GSR round outside the windows.
        window_rounds = {
            start + offset
            for start, _ in windows
            for offset in range(self.window_length)
        }
        bursts = []
        run_start: Optional[int] = None
        for round_number in range(1, self.gsr_round):
            if round_number in window_rounds:
                if run_start is not None:
                    bursts.append(
                        LossBurst(run_start, round_number - 1, self.suppression_prob)
                    )
                    run_start = None
            elif run_start is None:
                run_start = round_number
        if run_start is not None:
            bursts.append(
                LossBurst(run_start, self.gsr_round - 1, self.suppression_prob)
            )
        return FaultPlan(
            n=self.n,
            loss_bursts=tuple(bursts),
            partitions=partitions,
            seed=derive_seed(self.seed, "adversary:plan"),
        )
