"""Trace generation and per-model round satisfaction.

A *trace* is what one experimental run produces: a sequence of per-round
latency matrices.  Against a timeout it yields timely-delivery matrices,
and those are all a run is from then on: its measured ``p`` is counted
off them, and against a model predicate they give the per-round
satisfaction vector and the fraction ``P_M`` the figures plot.

Following Section 5.2, rounds here are synchronized windows of length
``timeout`` ("a message is considered to arrive in a communication round
if its latency is less than the timeout").  The event-driven
round-synchronization runs (:mod:`repro.sync`) validate that this
idealization matches protocol-produced matrices; see
``tests/integration/test_sync_vs_matrix.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.models.registry import TimingModel, get_model
from repro.net.base import LatencyModel
from repro.net.lan import LanProfile
from repro.net.planetlab import PlanetLabProfile
from repro.sim.transport import not_a_delay

if TYPE_CHECKING:
    from repro.faults.plan import FaultPlan


#: Version tag of the batch trace sampler, folded into the sweep cache's key
#: (see :func:`repro.experiments.cache.timely_key`): bump it whenever the
#: sampler's draw order changes so stale cache records orphan cleanly.
TRACE_SAMPLER_VERSION = "batch2"


def sample_latency_trace(
    model: LatencyModel, rounds: int, round_length: float
) -> np.ndarray:
    """``rounds`` latency matrices; entry ``[k, dst, src]`` in seconds.

    The model samples the whole trace in one vectorized pass over
    256-round columns of every link
    (:meth:`~repro.net.base.LatencyModel.sample_trace_batch`) — a pure
    function of ``(model parameters, seed)``, bit-identical across
    calls, processes and ``--jobs`` values.

    The trace is checked once, here, before anything thresholds or
    caches it: under ``latency < timeout`` a NaN would read "lost" and a
    negative value "timely", so either raises the transport's
    ``ValueError`` naming link, model and value.  ``+inf`` is a loss.
    """
    trace = model.sample_trace_batch(rounds, round_length)
    if trace.size and not trace.min() >= 0.0:
        k, dst, src = np.argwhere(~(trace >= 0.0))[0]
        raise not_a_delay(model, src, dst, trace[k, dst, src])
    return trace


def sample_latency_trace_scalar(
    model: LatencyModel, rounds: int, round_length: float
) -> np.ndarray:
    """The per-round reference sampler (consumes the model's shared RNG).

    Kept as the baseline the batch path is validated against
    (``tests/properties/test_prop_batch_sampling.py``) and benchmarked
    against (``benchmarks/test_trace_gen_speedup.py``).
    """
    return np.array(
        [model.sample_round_latencies(k * round_length) for k in range(rounds)]
    )


def sample_wan_trace(rounds: int, round_length: float, seed: int) -> np.ndarray:
    """A synthetic PlanetLab latency trace (see :class:`PlanetLabProfile`)."""
    return sample_latency_trace(PlanetLabProfile(seed=seed), rounds, round_length)


def sample_lan_trace(rounds: int, round_length: float, seed: int) -> np.ndarray:
    """A LAN latency trace (see :class:`LanProfile`)."""
    return sample_latency_trace(LanProfile(seed=seed), rounds, round_length)


def timely_matrices(latency_trace: np.ndarray, timeout: float) -> np.ndarray:
    """Boolean delivery matrices ``[..., round, dst, src]`` for a timeout;
    diagonal forced timely."""
    matrices = latency_trace < timeout
    diag = np.arange(matrices.shape[-1])
    matrices[..., diag, diag] = True
    return matrices


def idealized_matrices(
    trace: np.ndarray, timeout: float, plan: Optional[FaultPlan] = None
) -> np.ndarray:
    """The figures' synchronized windows over ``trace`` (``[..., round,
    dst, src]``; leading axes are runs, which share the verdict) under a
    :class:`~repro.faults.plan.FaultPlan`, as the wire applies it:
    :meth:`~repro.faults.event.PlanLinkFaults.judge` rules on each
    off-diagonal message of round ``k`` in plan round ``k``, a lost one's
    latency becomes ``+inf``, the rest take their link's factor — then a
    message is timely iff its latency is below timeout."""
    if plan is not None:
        # Imported here: only the fault phases need repro.faults.
        from repro.faults.event import PlanLinkFaults

        rounds, n = trace.shape[-3:-1]
        sent = np.broadcast_to(~np.eye(n, dtype=bool), (rounds, n, n))
        lost, factor, _ = PlanLinkFaults(plan, timeout).judge(
            sent, np.arange(1, rounds + 1)
        )
        trace = np.where(lost, np.inf, trace * factor)
    return timely_matrices(trace, timeout)


def measured_p(matrices: np.ndarray) -> float:
    """Fraction of (off-diagonal) messages a run's timely matrices
    deliver (:func:`timely_matrices` at the run's timeout).

    This is the measured analogue of the IID ``p`` — the paper's
    Figure 1(d) maps timeouts to these values.  It counts the timely
    entries of the whole stack and takes the diagonal's away: an exact
    count over a length, the mean of the off-diagonal entries bit for bit
    (NaN for a stack with no link, as that mean is).
    """
    rounds, n = matrices.shape[:2]
    links = rounds * n * (n - 1)
    if not links:
        return float("nan")
    own = np.count_nonzero(matrices.diagonal(axis1=1, axis2=2))
    return float((np.count_nonzero(matrices) - own) / links)


def satisfaction_vector(
    matrices: np.ndarray,
    model: TimingModel | str,
    leader: Optional[int] = None,
) -> np.ndarray:
    """Boolean vector: does round ``k`` satisfy the model?

    Evaluates every round in one batched NumPy pass (see
    :meth:`~repro.models.registry.TimingModel.satisfied_batch`); the
    result is bit-identical to looping ``model.satisfied`` per round.
    """
    if isinstance(model, str):
        model = get_model(model)
    return model.satisfied_batch(np.asarray(matrices), leader=leader)


def satisfied_fraction(
    satisfied: np.ndarray, skip_until_first_stable: bool = False
) -> float:
    """``P_M`` of a per-round satisfaction vector: the fraction of
    satisfying rounds (see :func:`satisfied_fractions`)."""
    return float(satisfied_fractions(satisfied, skip_until_first_stable))


def satisfied_fractions(
    satisfied: np.ndarray, skip_until_first_stable: bool = False
) -> np.ndarray:
    """``P_M`` along the last axis: one value per run of a ``(runs,
    rounds)`` table, a 0-d array for one vector.

    With ``skip_until_first_stable`` (the paper's Section 5.3 protocol),
    rounds before the first satisfying round are excluded, eliminating
    startup effects; a run no round satisfies reads 0.0.  Each value is
    the run's ``mean`` bit for bit: an exact count over a length.
    """
    satisfied = np.asarray(satisfied, dtype=bool)
    counts = satisfied.sum(axis=-1)
    length = satisfied.shape[-1]
    if not skip_until_first_stable:
        return counts / length
    if not length:
        return np.zeros(satisfied.shape[:-1])
    # Rounds before the first satisfying one satisfy nothing, so only the
    # length shrinks (and stays positive wherever a round satisfies).
    first = satisfied.argmax(axis=-1)
    return np.where(counts > 0, counts / (length - first), 0.0)


def model_satisfaction(
    matrices: np.ndarray,
    model: TimingModel | str,
    leader: Optional[int] = None,
    skip_until_first_stable: bool = False,
) -> float:
    """``P_M``: the fraction of rounds satisfying the model (see
    :func:`satisfied_fraction` for ``skip_until_first_stable``)."""
    return satisfied_fraction(
        satisfaction_vector(matrices, model, leader), skip_until_first_stable
    )
