"""The faults table reads the wire: each run's latency trace, resampled
from its cell's seed, under the plan's wire verdict
(:func:`~repro.experiments.measurement.idealized_matrices`) — the reading
the event stack injects, a slow node's latency factor included.  A sweep
whose timely graphs are not those traces' is refused."""

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.config import QUICK
from repro.experiments.decision import mean_over_deciding_runs
from repro.experiments.figures import (
    MEASURED_MODELS,
    WanSweep,
    lan_cell,
    run_wan_sweep,
)
from repro.experiments.measurement import (
    idealized_matrices,
    sample_wan_trace,
    satisfied_fractions,
)
from repro.experiments.robustness import (
    CANONICAL_TIMEOUT,
    canonical_plans,
    measure_robustness,
)
from repro.models.registry import get_model

SEED = 3


@pytest.fixture(scope="module")
def quick_sweep():
    return run_wan_sweep(QUICK)


def reference(sweep, plan, model, timeout):
    """``(P_M, D)`` of ``model`` over the sweep's runs at ``timeout``,
    one run at a time: its trace resampled from its cell's seed, under
    ``plan`` as the wire applies it, each round judged against the leader
    the plan's oracle elects in it."""
    config = sweep.config
    t_index = config.timeouts.index(timeout)
    resolved = get_model(model)
    correct = sorted(plan.correct()) if len(plan.correct()) < plan.n else None
    vectors = []
    for r_index in range(config.runs):
        trace = sample_wan_trace(
            config.rounds_per_run, timeout,
            config.run_seed(t_index, r_index, purpose="trace"),
        )
        faulted = idealized_matrices(trace, timeout, plan)
        vector = []
        for k, matrix in enumerate(faulted, start=1):
            leader = plan.churn_leader(k) if plan.churning_at(k) else sweep.leader
            vector.append(bool(resolved.satisfied_batch(
                matrix[None],
                leader=leader if resolved.needs_leader else None,
                correct=correct,
            )[0]))
        vectors.append(vector)
    vectors = np.array(vectors)
    pm = float(np.mean(satisfied_fractions(vectors)))
    rounds = mean_over_deciding_runs(
        vectors, resolved.decision_rounds, sweep.start_points()[t_index]
    )
    return pm, rounds


def test_every_faulted_cell_is_the_wire_reading_of_the_resampled_traces(
    quick_sweep,
):
    timeout = CANONICAL_TIMEOUT
    plans = canonical_plans(QUICK.n, QUICK.rounds_per_run, SEED)
    cells = measure_robustness(quick_sweep, SEED, timeout=timeout)
    assert [(cell.fault, cell.model) for cell in cells] == [
        (fault, model) for fault in plans for model in MEASURED_MODELS
    ]
    for cell in cells:
        pm, rounds = reference(quick_sweep, plans[cell.fault], cell.model, timeout)
        assert cell.pm_faulted == pm, (cell.fault, cell.model)
        # By repr, so that NaN (no run decided) equals NaN.
        assert repr(cell.rounds_faulted) == repr(rounds), (cell.fault, cell.model)


def test_a_slow_node_delays_messages_and_loses_none(quick_sweep):
    """The slow node's row reads its latency factor: the wire loses none
    of its messages, and what it delays past the timeout is late."""
    timeout = CANONICAL_TIMEOUT
    t_index = QUICK.timeouts.index(timeout)
    plan = canonical_plans(QUICK.n, QUICK.rounds_per_run, SEED)["slow node"]
    (slow,) = plan.slow_nodes
    trace = sample_wan_trace(
        QUICK.rounds_per_run, timeout, QUICK.run_seed(t_index, 0, purpose="trace")
    )
    clean = idealized_matrices(trace, timeout)
    faulted = idealized_matrices(trace, timeout, plan)
    window = slice(slow.start_round - 1, slow.end_round)
    stretched = trace[window].copy()
    stretched[:, slow.pid, :] *= slow.factor
    stretched[:, :, slow.pid] *= slow.factor
    assert np.array_equal(
        faulted[window], idealized_matrices(stretched, timeout)
    )
    assert np.array_equal(faulted[slow.end_round:], clean[slow.end_round:])
    assert (faulted <= clean).all() and (faulted != clean).any()


def test_a_sweep_of_lan_cells_is_refused():
    config = replace(QUICK, runs=2)
    sweep = WanSweep(config=config, leader=0)
    for t_index, timeout in enumerate(config.timeouts):
        sweep.runs[timeout] = [
            lan_cell(config, t_index, r_index) for r_index in range(config.runs)
        ]
    with pytest.raises(ValueError, match="not WAN cells"):
        measure_robustness(sweep, SEED, timeout=CANONICAL_TIMEOUT)
