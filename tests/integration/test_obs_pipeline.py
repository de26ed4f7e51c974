"""Integration tests for the telemetry layer (``repro.obs``).

The acceptance bar: transport drop counters reconcile *exactly* against
the fault plan's realized losses under a mixed plan (loss bursts,
partitions, crash windows); disabled telemetry observes nothing and
perturbs nothing; and the experiments CLI emits the full ``--metrics``
artifact set, its JSONL phase timeline included.
"""

import json

import numpy as np
import pytest

from repro.faults import Crash, FaultPlan, LossBurst, Partition
from repro.giraf import NullOracle
from repro.obs import MetricsRegistry, read_jsonl, read_manifest
from repro.sim import Transport
from repro.sync import HeartbeatAlgorithm, SyncRun
from tests.conftest import FixedLatency


N = 5
TIMEOUT = 0.2
LATENCY = 0.05


def mixed_plan():
    """Loss burst, partition and a crash window in *disjoint* round
    ranges, so every link-level drop has one unambiguous cause."""
    return FaultPlan(
        n=N,
        crashes=(Crash(1, 8, recover_round=10),),
        loss_bursts=(LossBurst(2, 3, drop_prob=1.0),),
        partitions=(Partition(((0, 1), (2, 3, 4)), 5, 7),),
        seed=23,
    )


def build_run(metrics=None):
    table = np.full((N, N), LATENCY)
    np.fill_diagonal(table, 0.0)
    return SyncRun(
        N,
        lambda pid: HeartbeatAlgorithm(pid, N),
        NullOracle(),
        lambda sim: Transport(sim, FixedLatency(LATENCY), metrics=metrics),
        timeout=TIMEOUT,
        latency_table=table,
        max_rounds=12,
        fault_plan=mixed_plan(),
        metrics=metrics,
    )


def instrumented_run(metrics=None):
    run = build_run(metrics)
    return run, run.run()


def plan_cause(plan, src, dst, round_number):
    """The cause the plan assigns a drop in this round (windows are
    disjoint by construction, so at most one applies)."""
    if plan.down_at(src, round_number) or plan.down_at(dst, round_number):
        return "crash"
    if plan.partitioned(src, dst, round_number):
        return "partition"
    if any(b.active_at(round_number) for b in plan.loss_bursts):
        return "loss-burst"
    return None


class TestDropReconciliation:
    def test_counters_match_realized_losses_exactly(self):
        metrics = MetricsRegistry()
        run = build_run(metrics)
        policy = run.link_faults
        judge = policy.drop
        verdicts = []

        def spy(src, dst, now):
            """The policy's own drop, noting each verdict and its cause."""
            dropped = judge(src, dst, now)
            cause = policy.last_drop_cause if dropped else None
            verdicts.append((src, dst, now, cause))
            return dropped

        policy.drop = spy
        run.run()
        plan = mixed_plan()

        expected = {"crash": 0, "partition": 0, "loss-burst": 0}
        for src, dst, now, cause in verdicts:
            if cause is None:
                continue
            round_number = policy.round_of(now)
            planned = plan_cause(plan, src, dst, round_number)
            # Every drop is the plan's, under the cause the plan gives it.
            assert cause == planned, (src, dst, now)
            expected[planned] += 1

        assert expected["loss-burst"] > 0
        assert expected["partition"] > 0
        assert expected["crash"] > 0
        for cause, count in expected.items():
            assert metrics.value("transport.dropped", cause=cause) == count
        # Natural loss and unregistered destinations never occurred.
        assert metrics.value("transport.dropped", cause="link") is None
        assert metrics.value("transport.dropped", cause="unregistered") is None
        # And the attributed drops are *all* of the transport's losses.
        assert sum(expected.values()) == run.transport.messages_lost

    def test_sent_minus_dropped_bounds_delivered(self):
        metrics = MetricsRegistry()
        run, _ = instrumented_run(metrics=metrics)
        sent = metrics.value("transport.sent")
        delivered = metrics.value("transport.delivered")
        dropped = sum(
            value
            for name, value in metrics.counters()
            if name.startswith("transport.dropped")
        )
        assert sent == run.transport.messages_sent
        # Messages still in flight when the simulation stops are neither
        # delivered nor dropped.
        assert delivered + dropped <= sent
        assert dropped == run.transport.messages_lost

    def test_fault_activations_counted(self):
        metrics = MetricsRegistry()
        instrumented_run(metrics=metrics)
        assert metrics.value("faults.activations", kind="crash") == 1
        assert metrics.value("faults.activations", kind="recover") == 1
        assert metrics.value("faults.activations", kind="loss-burst") == 1
        assert metrics.value("faults.activations", kind="partition") == 1

    def test_sync_counters_populated(self):
        metrics = MetricsRegistry()
        run, result = instrumented_run(metrics=metrics)
        # A recovering node restarts its current round: the counter sees
        # both starts, the run's log keeps one cell per (round, node).
        restarts = metrics.value("faults.activations", kind="recover")
        assert metrics.value("sync.rounds_started") == restarts + (
            np.count_nonzero(~np.isnan(run.log.starts))
        )
        assert metrics.value("sync.rounds_jumped") == sum(result.jumps)
        assert metrics.value("sync.late_messages") == sum(
            result.late_messages
        )


class TestDisabledPath:
    def test_disabled_telemetry_observes_nothing(self):
        metrics = MetricsRegistry(enabled=False)
        instrumented_run(metrics=metrics)
        assert metrics.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_telemetry_does_not_perturb_the_run(self):
        _, instrumented = instrumented_run(metrics=MetricsRegistry())
        _, plain = instrumented_run()
        assert len(instrumented.matrices) == len(plain.matrices)
        for left, right in zip(instrumented.matrices, plain.matrices):
            assert (left == right).all()
        assert np.allclose(
            instrumented.sync_error, plain.sync_error, equal_nan=True
        )


class TestCliMetricsDir:
    def test_cli_emits_manifest_timeline_and_table(self, tmp_path, monkeypatch):
        import repro.experiments.run_all as run_all_module
        from repro.experiments.config import SweepConfig
        from repro.experiments.obs_report import render_metrics_dir
        from repro.experiments.run_all import main

        tiny = SweepConfig(
            rounds_per_run=60, runs=2, start_points=3,
            timeouts=(0.16, 0.21), seed=1,
        )
        tiny_lan = SweepConfig(
            rounds_per_run=40, runs=2, start_points=3,
            timeouts=(0.0002, 0.0009), seed=1,
        )
        monkeypatch.setattr(run_all_module, "QUICK", tiny)
        monkeypatch.setattr(run_all_module, "QUICK_LAN", tiny_lan)

        metrics_dir = tmp_path / "metrics"
        exit_code = main(
            ["--out", str(tmp_path / "out"), "--metrics", str(metrics_dir)]
        )
        assert exit_code == 0

        manifest = read_manifest(metrics_dir / "manifest.json")
        assert manifest["schema"] == "repro.obs/v1"
        assert manifest["wan_config"]["runs"] == 2
        assert manifest["seeds"] == {"wan": 1, "lan": 1}

        events = read_jsonl(metrics_dir / "timeline.jsonl")
        phases = [
            event["phase"]
            for event in events
            if event["kind"] == "phase.start"
        ]
        assert phases == ["analysis", "lan", "wan", "wan-figures"]

        snapshot = json.loads((metrics_dir / "metrics.json").read_text())
        assert "sweep.cell_seconds{phase=wan}" in snapshot["histograms"]
        assert (
            snapshot["histograms"]["sweep.cell_seconds{phase=wan}"]["count"]
            == 4
        )

        table = (metrics_dir / "metrics.txt").read_text()
        assert "Counters" in table
        assert "sweep.cell_seconds{phase=wan}" in table
        assert "run.phase_seconds{phase=wan}" in table

        rendered = render_metrics_dir(metrics_dir)
        assert "Run manifest" in rendered
        assert "timeline:" in rendered

    def test_every_optional_phase_run_is_counted_once(
        self, tmp_path, monkeypatch
    ):
        """Each ``SyncRun.run`` an optional phase executes — twin legs,
        fallback probes and the robustness and live-extraction runs, whose
        registries are their own, included — adds one to the CLI's
        ``sync.executed_mode`` and, when it fell back, one to
        ``sync.batch_fallback``."""
        from collections import Counter

        import repro.experiments.run_all as run_all_module
        from repro.experiments.config import SweepConfig
        from repro.experiments.run_all import main

        tiny = SweepConfig(
            rounds_per_run=60, runs=1, start_points=2,
            timeouts=(0.21,), seed=1,
        )
        monkeypatch.setattr(run_all_module, "QUICK", tiny)
        monkeypatch.setattr(run_all_module, "QUICK_LAN", tiny)
        modes, fallbacks = Counter(), Counter()
        run = SyncRun.run

        def counted(self, *args, **kwargs):
            result = run(self, *args, **kwargs)
            modes[self.executed_mode] += 1
            fallbacks[self.fallback_reason] += 1
            return result

        monkeypatch.setattr(SyncRun, "run", counted)
        metrics_dir = tmp_path / "metrics"
        assert main([
            "--out", str(tmp_path / "out"), "--metrics", str(metrics_dir),
            "--faults", "--check", "--adaptive",
        ]) == 0

        counters = json.loads((metrics_dir / "metrics.json").read_text())[
            "counters"
        ]
        assert modes["batch"] and modes["scalar"]
        for mode, count in modes.items():
            assert counters[f"sync.executed_mode{{mode={mode}}}"] == count
        del fallbacks[None]
        assert fallbacks
        for reason, count in fallbacks.items():
            assert counters[f"sync.batch_fallback{{reason={reason}}}"] == count
        assert sum(
            value for key, value in counters.items()
            if key.startswith("sync.executed_mode")
        ) == sum(modes.values())

    def test_metrics_run_matches_unprofiled_run(self, tmp_path, monkeypatch):
        """Profiling must not change a single byte of the figures."""
        import repro.experiments.run_all as run_all_module
        from repro.experiments.config import SweepConfig
        from repro.experiments.run_all import main

        tiny = SweepConfig(
            rounds_per_run=40, runs=1, start_points=2,
            timeouts=(0.21,), seed=1,
        )
        monkeypatch.setattr(run_all_module, "QUICK", tiny)
        monkeypatch.setattr(run_all_module, "QUICK_LAN", tiny)

        out_plain = tmp_path / "plain"
        out_profiled = tmp_path / "profiled"
        assert main(["--out", str(out_plain)]) == 0
        assert main(
            [
                "--out", str(out_profiled),
                "--metrics", str(tmp_path / "metrics"),
            ]
        ) == 0
        for path in sorted(out_plain.glob("*.txt")):
            twin = out_profiled / path.name
            assert twin.read_text() == path.read_text(), path.name
