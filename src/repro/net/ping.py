"""Ping measurement and leader selection.

Before its experiments, the paper measures the average latency between
every pair of nodes with pings; the resulting tables ``L_i[j]`` drive both
the round-synchronization protocol (Section 5.1) and the choice of a
well-connected node as the designated leader (Sections 5.2-5.3 — the UK
node in the WAN runs).
"""

from __future__ import annotations

import numpy as np

from repro.net.base import LatencyModel, off_diagonal
from repro.sim.transport import not_a_delay


def measure_latency_table(model: LatencyModel, pings: int = 20) -> np.ndarray:
    """Measure typical one-way latencies by repeated pings.

    Returns the ``n x n`` matrix ``L`` with ``L[i, j]`` the *median*
    latency from ``j`` to ``i`` over ``pings`` samples (lost pings count
    as ``+inf``; a link losing most pings gets ``+inf``).  The diagonal
    is 0.  The paper uses the average ping latency; the median is the
    robust equivalent — WAN latency tails are heavy enough (maxima orders
    of magnitude above the typical latency [4, 6]) that a mean over a few
    dozen pings is dominated by a single excursion.

    The measurement consumes randomness from the model, like real pings
    consume wall-clock time before the experiment starts.  A NaN or
    negative sample is the model's error and raises the transport's
    ``ValueError`` naming link, model and value.
    """
    if pings < 1:
        raise ValueError("need at least one ping")
    n = model.n
    samples = np.full((pings, n, n), np.inf)
    for k in range(pings):
        now = 0.1 * k
        for src in range(n):
            for dst in range(n):
                if src == dst:
                    continue
                sample = model.sample_latency(src, dst, now)
                if sample is None:
                    continue
                if not sample >= 0.0:
                    raise not_a_delay(model, src, dst, sample)
                samples[k, dst, src] = sample
    table = np.median(samples, axis=0)
    np.fill_diagonal(table, 0.0)
    return table


def _loss_penalty(rtt: np.ndarray, off_diag: np.ndarray) -> float:
    """The RTT charged for a dead (infinite) link when scoring nodes.

    Twice the worst *finite* round-trip time in the table: strictly worse
    than any measured link, so losing a link always costs, but finite, so
    one dead link does not erase a node's measured connectivity.  With no
    finite off-diagonal entry at all (a fully partitioned measurement)
    the penalty is 1.0 — every node then scores identically and the
    selection degenerates to node 0, which is the honest answer when the
    pings saw no connectivity to compare.
    """
    finite = rtt[off_diag & np.isfinite(rtt)]
    if finite.size == 0:
        return 1.0
    return float(2.0 * finite.max())


def select_leader(latency_table: np.ndarray) -> int:
    """Choose the well-connected node of a measured latency table: the
    node minimizing its mean round-trip time to the others (the paper's
    criterion, which picks the UK node on the WAN).

    Lost links: :func:`measure_latency_table` reports ``+inf`` for a link
    that lost most of its pings, so under a measurement-time partition a
    node's RTT row contains infinities.  Scoring the raw mean would make
    *every* node with one dead link score ``inf`` and leave ``argmin`` to
    tie-break them all to node 0 — an arbitrary "well-connected" leader.
    Instead each dead link is charged a finite loss penalty (twice the
    worst measured RTT, see :func:`_loss_penalty`), so nodes are ranked
    by measured latency first and by how many peers they can actually
    reach second.
    """
    n = latency_table.shape[0]
    rtt = latency_table + latency_table.T
    off_diag = off_diagonal(n)
    penalized = np.where(np.isfinite(rtt), rtt, _loss_penalty(rtt, off_diag))
    scores = np.array([penalized[i][off_diag[i]].mean() for i in range(n)])
    return int(np.argmin(scores))
