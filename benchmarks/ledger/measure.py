"""Measuring workloads: set-ups, repetitions, and the samples they yield.

The one protocol behind both entry points.  ``run.py`` (one workload,
repeated for ``--seconds``) and the full ledger run (six workloads, a
fixed count each, interleaved) differ only in *when a workload has been
repeated enough*; set-ups, the repetition loop, failure accounting and
the estimator — the median of the kept repetitions — are these
functions, so a driver number and a ledger number are the same quantity.

Every duration is **corrected for the host's momentary speed**.  The box
is a few cores of a shared host whose speed moves by 20-50 % for minutes
at a time (README, "Measured spread"); no count of repetitions inside a
run averages that away.  So a fixed kernel (``stats.gauge_ms``) is timed
before and after every set-up and repetition, and the durations measured
in between are divided by ``slowdown`` = mean of the two readings /
``spec.GAUGE_CALM_MS``.  A corrected second is a second on a machine
whose gauge reads the calm value; the raw second is corrected x
slowdown, and the ledger document keeps the slowdowns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence, TypeVar

from benchmarks.ledger import spec, stats
from benchmarks.ledger.workloads import Context, Rep, State, Workload


T = TypeVar("T")


@dataclass
class Taken:
    """What has been measured of one workload so far."""

    #: The last set-up's state; every repetition runs against it.
    state: State
    #: Corrected, like every duration; ``setup_slowdowns`` has the factors.
    setup_seconds: list[float]
    setup_slowdowns: list[float]
    #: Checks made and failed, over set-ups and *every* repetition.
    attempted: int
    failed: int
    reps: list[Rep] = field(default_factory=list)
    #: Host seconds spent on repetitions so far, gauge readings included.
    rep_seconds: float = 0.0


class Gauge:
    """Reads the host's speed around each measured action.  Actions
    follow one another directly, so each shares the reading between it
    and the next."""

    def __init__(self) -> None:
        self._last = stats.gauge_ms()

    def around(self, action: Callable[[], T]) -> tuple[T, float, float]:
        """Run ``action``; its result, its raw seconds, and the slowdown
        of the host while it ran."""
        before = self._last
        begin = time.perf_counter()
        result = action()
        seconds = time.perf_counter() - begin
        self._last = stats.gauge_ms()
        return result, seconds, (before + self._last) / 2 / spec.GAUGE_CALM_MS


def set_up(workload: Workload, ctx: Context, count: int, gauge: Gauge) -> Taken:
    """Set ``workload`` up ``count`` times, timing each."""
    seconds, slowdowns, attempted, failed = [], [], 0, 0
    for _ in range(count):
        state, raw, slowdown = gauge.around(lambda: workload.setup(ctx))
        seconds.append(raw / slowdown)
        slowdowns.append(slowdown)
        attempted, failed = attempted + state.attempted, failed + state.failed
    return Taken(state, seconds, slowdowns, attempted, failed)


def repeat(
    workloads: Sequence[Workload],
    ctx: Context,
    taken: dict[str, Taken],
    enough: Callable[[Workload, Taken], bool],
    gauge: Gauge,
    say: Callable[[str], None] = lambda message: None,
) -> None:
    """Repeat round-robin — repetition 1 of all, repetition 2 of all, ... —
    so machine drift hits all alike, until ``enough`` holds for each."""
    pending = list(workloads)
    while pending:
        pending = [w for w in pending if not enough(w, taken[w.name])]
        for w in pending:
            mine = taken[w.name]
            begin = time.perf_counter()
            rep, _, slowdown = gauge.around(lambda: w.rep(ctx, mine.state))
            rep.slowdown = slowdown
            mine.rep_seconds += time.perf_counter() - begin  # gauge included
            mine.reps.append(rep)
            mine.attempted += rep.attempted
            mine.failed += rep.failed
            say(f"rep {len(mine.reps)} {w.name}: {rep.wall_s:.2f}s raw, "
                f"slowdown {rep.slowdown:.2f}, {rep.failed} failed")


def samples(taken: Taken, warmup: int) -> dict[str, list[float]]:
    """Every end-to-end metric's samples: the set-up times, and one value
    per repetition after the first ``warmup`` (whose checks still count).
    The reported value of a metric is the median of its samples."""
    values = {"setup_s": list(taken.setup_seconds)}
    for rep in taken.reps[warmup:]:
        for name, value in rep.metrics().items():
            values.setdefault(name, []).append(value)
    return values
