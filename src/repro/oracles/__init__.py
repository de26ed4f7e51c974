"""Leader oracles (Ω) and leader election policies.

The GIRAF-level oracle interfaces live in :mod:`repro.giraf.oracle`; this
package re-exports them and adds :class:`HeartbeatOmega`, a live
heartbeat failure detector.  The paper's own procedure — ping, pick a
well-connected node (UK on PlanetLab), fix it as leader for all runs,
relying on leader-stability results [24, 1, 16] — is
:func:`repro.net.ping.select_leader` feeding a
:class:`FixedLeaderOracle`.
"""

from repro.giraf.oracle import (
    Oracle,
    NullOracle,
    FixedLeaderOracle,
    EventuallyStableLeaderOracle,
    RotatingLeaderOracle,
    ScriptedOracle,
)
from repro.oracles.omega import HeartbeatOmega

__all__ = [
    "HeartbeatOmega",
    "Oracle",
    "NullOracle",
    "FixedLeaderOracle",
    "EventuallyStableLeaderOracle",
    "RotatingLeaderOracle",
    "ScriptedOracle",
]
