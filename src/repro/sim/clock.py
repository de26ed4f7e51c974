"""Per-process clocks with offset and drift.

The round-synchronization protocol of the paper's Section 5.1 exists
precisely because WAN nodes do not share a clock.  To exercise it honestly,
every simulated process reads time through a :class:`Clock` that maps the
simulator's global time to a skewed, drifting local time.

The mapping is affine: ``local = offset + (1 + drift) * global``.  Drift is
expressed as a rate error (e.g. ``1e-5`` means the local clock gains 10
microseconds per second), which is the magnitude real quartz oscillators
exhibit.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Clock:
    """An affine local clock.

    Attributes:
        offset: local time at global time zero (seconds).  It does not
            affect the event stack, which cuts rounds by durations alone.
        drift: rate error; the local clock advances ``1 + drift`` local
            seconds per global second.  Must be finite and greater than
            ``-1``, so the clock always moves forward at a finite rate.
    """

    offset: float = 0.0
    drift: float = 0.0

    def __post_init__(self) -> None:
        if not -1.0 < self.drift < float("inf"):
            raise ValueError(
                f"drift {self.drift} must be finite and above -1, so the clock"
                " moves forward at a finite rate"
            )

    def global_duration(self, local_duration: float) -> float:
        """How much global time passes while this clock advances ``local_duration``."""
        return local_duration / (1.0 + self.drift)
