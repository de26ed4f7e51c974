"""The Section 5.1 round-synchronization protocol.

WAN nodes have no synchronized clocks, so GIRAF's rounds must be
synchronized by protocol.  The paper's implementation (reproduced here in
event-driven form over the simulator):

- average pairwise latencies ``L_i[j]`` are measured by pings before the
  run;
- each node starts a round by sending its messages, then waits ``timeout``
  on its local clock;
- a message belonging to a *future* round ``k_j`` ends the current round
  immediately: ``compute()`` is called, the node jumps straight into round
  ``k_j`` (using the message that triggered the jump), and shortens that
  round to ``timeout - L_i[j]`` to finish it together with the peers.

The paper found this achieves very fast synchronization and immediate
resynchronization after disruptions — properties the test-suite checks.

- :mod:`round_sync` — :class:`SyncedNode`, :class:`SyncRun` and the
  :class:`RoundLog` every run records its rounds in.
- :mod:`heartbeat` — the all-to-all probe algorithm used by measurement
  runs (each node sends to everyone each round, as in the paper's WAN
  experiment), the one constructor of such a run (:func:`probe_run`) and
  the run as a row of data (:class:`ProbeScenario`).
- :mod:`batch` — the batched execution of eligible runs, the probe
  stream as whole arrays and any other algorithm stepped round by round
  (``SyncRun.run`` picks it automatically), and the scalar ≡ batch
  identity contract (:func:`twin_runs`).
"""

from repro.sync.round_sync import RoundLog, SyncedNode, SyncRun, SyncRunResult
from repro.sync.heartbeat import HeartbeatAlgorithm, ProbeScenario, probe_run
from repro.sync.batch import batch_eligibility, run_batched, twin_runs

__all__ = [
    "RoundLog",
    "SyncedNode",
    "SyncRun",
    "SyncRunResult",
    "HeartbeatAlgorithm",
    "ProbeScenario",
    "probe_run",
    "batch_eligibility",
    "run_batched",
    "twin_runs",
]
