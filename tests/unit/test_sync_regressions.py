"""Regression tests for the round-sync observation bugs.

Three bugs, one file: (1) ``SyncRun._collect`` compacted ``sync_error``
by skipping rounds some node never started, shifting every later reading
onto the wrong round for any run with jumps; (2) the per-round delivery
matrices were seeded with ``np.eye``, crediting a process as timely to
itself in rounds it jumped over (inflating P_M); (3)
``HeartbeatOmega.observe`` wrote ``round_number`` unconditionally, so an
out-of-order observation rolled ``_last_heard`` backwards and
resurrected suspicion of live processes.
"""

import numpy as np
import pytest

from repro.faults import Crash, FaultPlan
from repro.giraf.oracle import NullOracle
from repro.net import uniform_wan_profile
from repro.oracles.omega import HeartbeatOmega
from repro.sim import Clock, Transport
from repro.sync import HeartbeatAlgorithm, SyncRun
from tests.conftest import FixedLatency


def jumpy_run(n=3, timeout=0.2, late_start=0.65, max_rounds=12):
    """A run whose last node boots mid-trace and fast-forwards over the
    rounds it slept through."""
    table = np.full((n, n), 0.05)
    np.fill_diagonal(table, 0.0)
    starts = [0.0] * (n - 1) + [late_start]
    run = SyncRun(
        n,
        lambda pid: HeartbeatAlgorithm(pid, n),
        NullOracle(),
        lambda sim: Transport(sim, FixedLatency(0.05)),
        timeout=timeout,
        latency_table=table,
        start_times=starts,
        max_rounds=max_rounds,
    )
    return run, run.run()


class TestSyncErrorAlignment:
    """Bug 1: sync_error must stay index-aligned with matrices."""

    def test_one_entry_per_round(self):
        run, result = jumpy_run()
        late = run.nodes[-1]
        assert late.jumps > 0, "fixture must actually produce a jump"
        assert len(result.sync_error) == len(result.matrices)

    def test_skipped_rounds_are_nan_not_dropped(self):
        run, result = jumpy_run()
        skipped = [
            k
            for k in range(1, len(result.matrices) + 1)
            if np.isnan(run.log.starts[k, run.n - 1])
        ]
        assert skipped, "fixture must produce jumped-over rounds"
        for k in skipped:
            assert np.isnan(result.sync_error[k - 1]), k

    def test_full_rounds_keep_their_own_reading(self):
        """Each finite entry is the spread of exactly its round's starts —
        the compacting bug read a later round's spread here."""
        run, result = jumpy_run()
        for k in range(1, len(result.matrices) + 1):
            starts = run.log.starts[k]
            if not np.isnan(starts).any():
                assert result.sync_error[k - 1] == max(starts) - min(starts)
            else:
                assert np.isnan(result.sync_error[k - 1])


class TestSkippedRoundDiagonal:
    """Bug 2: a jumped-over round must not self-credit the jumper."""

    def test_skipped_round_row_is_all_false(self):
        run, result = jumpy_run()
        late_pid = run.n - 1
        skipped = [
            k
            for k in range(1, len(result.matrices) + 1)
            if np.isnan(run.log.ends[k, late_pid])
        ]
        assert skipped, "fixture must produce jumped-over rounds"
        for k in skipped:
            row = result.matrices[k - 1][late_pid]
            assert not row.any(), f"round {k} row {row}"
            # The old np.eye seeding made exactly this entry True.
            assert not result.matrices[k - 1][late_pid, late_pid]

    def test_executed_rounds_still_self_credit(self):
        run, result = jumpy_run()
        for k in range(1, len(result.matrices) + 1):
            for pid in range(run.n):
                if not np.isnan(run.log.ends[k, pid]):
                    assert result.matrices[k - 1][pid, pid], (k, pid)

    def test_inflation_gone(self):
        """The spurious diagonal made a skipped round count one timely
        link; P_M computed over the run must not see it."""
        run, result = jumpy_run()
        late_pid = run.n - 1
        stack = np.stack(result.matrices)
        skipped = [
            k
            for k in range(1, len(stack) + 1)
            if np.isnan(run.log.ends[k, late_pid])
        ]
        assert stack[[k - 1 for k in skipped], late_pid].sum() == 0


class TestOmegaMonotonicity:
    """Bug 3: out-of-order observations must not roll freshness back."""

    def test_out_of_order_observation_cannot_resurrect_suspicion(self):
        omega = HeartbeatOmega(n=3, suspicion_rounds=2)
        omega.observe_rows(5, np.ones((3, 3), dtype=bool))
        # A replayed (or re-driven) early round arrives late.
        omega.observe_rows(2, np.ones((3, 3), dtype=bool))
        # Before the fix _last_heard fell back to 2; at round 6 the
        # horizon is 4, so every live process looked silent.
        for pid in range(3):
            assert omega.trusted(pid, 6) == 0

    def test_silence_in_an_old_round_changes_nothing(self):
        omega = HeartbeatOmega(n=3, suspicion_rounds=2)
        omega.observe_rows(5, np.ones((3, 3), dtype=bool))
        before = omega._last_heard.copy()
        omega.observe_rows(3, np.zeros((3, 3), dtype=bool))
        assert (omega._last_heard == before).all()

    def test_repeated_observation_is_idempotent(self):
        omega = HeartbeatOmega(n=4, suspicion_rounds=3)
        delivered = np.zeros((4, 4), dtype=bool)
        delivered[1, 0] = True
        omega.observe_rows(4, delivered)
        before = omega._last_heard.copy()
        omega.observe_rows(4, delivered)
        assert (omega._last_heard == before).all()

    def test_genuine_silence_still_detected(self):
        """Monotonicity must not break crash detection: a process that
        stops being heard in *new* rounds is still dropped."""
        omega = HeartbeatOmega(n=3, suspicion_rounds=2)
        omega.observe_rows(1, np.ones((3, 3), dtype=bool))
        quiet = np.ones((3, 3), dtype=bool)
        quiet[:, 0] = False  # process 0 goes silent
        for k in range(2, 6):
            omega.observe_rows(k, quiet)
        assert omega.trusted(1, 5) == 1

    def test_write_only_round_counter_removed(self):
        assert not hasattr(HeartbeatOmega(n=3), "_round")


N = 8
TABLE = np.full((N, N), 0.02)


def table_with(estimate):
    """``TABLE`` with node 1's estimate of its link from node 2 replaced."""
    table = TABLE.copy()
    table[1, 2] = estimate
    return table


class TestConstructionValidatesInputs:
    """Each bad input used to fail differently per engine — an ``assert``
    or a NumPy/``IndexError`` in auto mode, a ``SimulationError``, five
    rounds or an empty result in scalar mode.  Both now refuse it at
    construction, with the same ``ValueError``."""

    @pytest.mark.parametrize("mode", ["auto", "scalar"])
    @pytest.mark.parametrize(
        "override, match",
        [
            pytest.param({"timeout": float("nan")}, "timeout", id="timeout-nan"),
            pytest.param({"timeout": float("inf")}, "timeout", id="timeout-inf"),
            pytest.param({"timeout": -1.0}, "timeout", id="timeout-negative"),
            pytest.param({"max_rounds": 0}, "max_rounds", id="max-rounds-0"),
            pytest.param(
                {"latency_table": TABLE[:4, :4]}, "latency_table", id="table-4x4"
            ),
            pytest.param(
                {"latency_table": table_with(float("nan"))},
                "latency_table",
                id="table-nan",
            ),
            pytest.param(
                {"latency_table": table_with(-0.5)},
                "latency_table",
                id="table-negative",
            ),
            pytest.param(
                {"start_times": [0.0] * 3}, "start time", id="three-start-times"
            ),
            pytest.param({"clocks": [Clock()] * 3}, "clock", id="three-clocks"),
            pytest.param(
                {"start_times": [float("nan")] * N}, "start times", id="start-nan"
            ),
            pytest.param(
                {"start_times": [-0.5] + [0.0] * (N - 1)},
                "start times",
                id="start-negative",
            ),
            # Dying mid-broadcast is the lockstep runner's alone; the event
            # stack used to run it as a plain round-boundary crash.
            pytest.param(
                {"fault_plan": FaultPlan(
                    n=N, crashes=(Crash(3, 4, final_sends=frozenset({0, 1})),)
                )},
                r"Crash\(pid=3.*final_sends",
                id="crash-final-sends",
            ),
        ],
    )
    def test_bad_input_is_the_same_value_error_on_both_engines(
        self, override, match, mode
    ):
        profile = uniform_wan_profile(n=N, seed=0)
        arguments = dict(timeout=0.1, latency_table=TABLE, max_rounds=5)
        arguments.update(override)
        with pytest.raises(ValueError, match=match):
            SyncRun(
                N,
                lambda pid: HeartbeatAlgorithm(pid, N),
                NullOracle(),
                lambda sim: Transport(sim, profile),
                **arguments,
            ).run(mode=mode)

    @pytest.mark.parametrize("mode", ["auto", "scalar"])
    def test_an_infinite_estimate_is_a_dead_link_and_stays_legal(self, mode):
        # ``+inf`` floors the joined round at MIN_ROUND_FRACTION instead.
        profile = uniform_wan_profile(n=N, seed=0)
        run = SyncRun(
            N,
            lambda pid: HeartbeatAlgorithm(pid, N),
            NullOracle(),
            lambda sim: Transport(sim, profile),
            timeout=0.1,
            latency_table=table_with(float("inf")),
            max_rounds=5,
        )
        assert len(run.run(mode=mode).matrices) == 5
