"""Trace generation and per-model round satisfaction.

A *trace* is what one experimental run produces: a sequence of per-round
latency matrices.  Against a timeout it yields timely-delivery matrices;
against a model predicate, the per-round satisfaction vector and the
fraction ``P_M`` the figures plot.

Following Section 5.2, rounds here are synchronized windows of length
``timeout`` ("a message is considered to arrive in a communication round
if its latency is less than the timeout").  The event-driven
round-synchronization runs (:mod:`repro.sync`) validate that this
idealization matches protocol-produced matrices; see
``tests/integration/test_sync_vs_matrix.py``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.models.registry import TimingModel, get_model
from repro.net.base import LatencyModel, off_diagonal
from repro.net.lan import LanProfile
from repro.net.planetlab import PlanetLabProfile
from repro.sim.transport import not_a_delay


#: Version tag of the batch trace sampler, folded into the trace-cache key
#: (see :func:`repro.experiments.cache.trace_key`): bump it whenever the
#: sampler's draw order changes so stale cached traces orphan cleanly.
TRACE_SAMPLER_VERSION = "batch2"


def sample_latency_trace(
    model: LatencyModel, rounds: int, round_length: float
) -> np.ndarray:
    """``rounds`` latency matrices; entry ``[k, dst, src]`` in seconds.

    Batch-capable models (see
    :meth:`~repro.net.base.LatencyModel.sample_trace_batch`) sample the
    whole trace in one vectorized pass over 256-round columns of every
    link — a pure function of ``(model parameters, seed)``, bit-identical across
    calls, processes and ``--jobs`` values.  Other models fall back to
    the per-round scalar loop (:func:`sample_latency_trace_scalar`).

    The trace is checked once, here, before anything thresholds or
    caches it: under ``latency < timeout`` a NaN would read "lost" and a
    negative value "timely", so either raises the transport's
    ``ValueError`` naming link, model and value.  ``+inf`` is a loss.
    """
    if model.supports_batch_trace:
        trace = model.sample_trace_batch(rounds, round_length)
    else:
        trace = sample_latency_trace_scalar(model, rounds, round_length)
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
    """Boolean delivery matrices for a timeout; diagonal forced timely."""
    matrices = latency_trace < timeout
    n = matrices.shape[1]
    matrices[:, np.arange(n), np.arange(n)] = True
    return matrices


def measured_p(latency_trace: np.ndarray, timeout: float) -> float:
    """Fraction of (off-diagonal) messages delivered within the timeout.

    This is the measured analogue of the IID ``p`` — the paper's
    Figure 1(d) maps timeouts to these values.
    """
    links = off_diagonal(latency_trace.shape[1])
    return float((latency_trace[:, links] < timeout).mean())


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
    satisfying rounds.

    With ``skip_until_first_stable`` (the paper's Section 5.3 protocol),
    rounds before the first satisfying round are excluded, eliminating
    startup effects.  Returns 0.0 if no round satisfies the model.
    """
    if skip_until_first_stable:
        indices = np.flatnonzero(satisfied)
        if indices.size == 0:
            return 0.0
        satisfied = satisfied[indices[0]:]
    return float(satisfied.mean())


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
