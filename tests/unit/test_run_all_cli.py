"""Unit tests for the evaluation CLI (``python -m repro.experiments``)."""

import itertools
import json
import re

import pytest

import repro.experiments.run_all as run_all_module
from repro.experiments.config import SweepConfig
from repro.experiments.run_all import PHASES, headline_numbers, main


@pytest.fixture
def tiny_configs(monkeypatch):
    """Drastically shrunken sweep configs so CLI runs stay fast."""
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


@pytest.fixture
def one_cell_config(monkeypatch):
    """One WAN-shaped cell for both sweeps: the cheapest full run."""
    tiny = SweepConfig(
        rounds_per_run=40, runs=1, start_points=2,
        timeouts=(0.21,), seed=1,
    )
    monkeypatch.setattr(run_all_module, "QUICK", tiny)
    monkeypatch.setattr(run_all_module, "QUICK_LAN", tiny)


class TestHeadlineNumbers:
    def test_contains_paper_values(self):
        text = headline_numbers()
        assert "349" in text
        assert "E(D_WLM direct) at p=0.92" in text


class TestPhaseTable:
    """The CLI's switches, numbering and spans are read off ``PHASES``."""

    def test_every_optional_row_has_exactly_one_flag_listed_in_help(
        self, capsys
    ):
        flags = [phase.flag for phase in PHASES if phase.flag is not None]
        assert flags == ["--faults", "--check", "--adaptive", "--new-models"]
        with pytest.raises(SystemExit):
            main(["--help"])
        listed = re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.M)
        # The whole CLI surface: an option added or lost shows up here.
        assert listed == [
            "--scale", "--out", "--charts", "--jobs", "--cache-dir",
            "--no-cache", *flags, "--metrics",
        ]

    def test_headers_are_contiguous_for_every_flag_subset(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(
            run_all_module,
            "PHASES",
            tuple(p._replace(runner=lambda ctx: None) for p in PHASES),
        )
        rows = {phase.name: phase for phase in PHASES}
        appended = ["--faults", "--check", "--adaptive", "--new-models"]
        for size in range(len(appended) + 1):
            for subset in itertools.combinations(appended, size):
                argv = ["--out", str(tmp_path), "--no-cache", *subset]
                assert main(argv) == 0
                headers = re.findall(
                    r"^\[(\d+)/(\d+)\] (.*)$", capsys.readouterr().out, re.M
                )
                total = 4 + size
                assert [(int(i), int(n)) for i, n, _ in headers] == [
                    (i, total) for i in range(1, total + 1)
                ], argv
                names = ["analysis", "lan", "wan", "wan-figures"] + [
                    flag.lstrip("-") for flag in subset
                ]
                assert [title for _, _, title in headers] == [
                    rows[name].title for name in names
                ], argv


class TestMain:
    def test_analysis_only_quick_run(self, tmp_path, tiny_configs):
        """Every artifact of the default pipeline appears."""
        exit_code = main(["--out", str(tmp_path), "--charts"])
        assert exit_code == 0
        for name in (
            "fig1a", "fig1b", "fig1c", "fig1d", "fig1e",
            "fig1f", "fig1g", "fig1h", "fig1i",
        ):
            assert (tmp_path / f"{name}.txt").exists(), name
            assert (tmp_path / f"{name}.chart.txt").exists(), name
        assert (tmp_path / "headline.txt").exists()

    def test_faults_flag_writes_robustness_table(self, tmp_path, tiny_configs):
        """``--faults`` appends the robustness phase, reusing the sweep."""
        exit_code = main(["--out", str(tmp_path), "--faults"])
        assert exit_code == 0
        table = (tmp_path / "faults.txt").read_text()
        for fault in (
            "crash+recover", "loss burst", "partition",
            "slow node", "leader churn",
        ):
            assert fault in table, fault
        assert "P_M clean" in table and "D ratio" in table

    def test_adaptive_flag_writes_selection_table(
        self, tmp_path, one_cell_config
    ):
        """``--adaptive`` appends the online-selection phase."""
        exit_code = main(["--out", str(tmp_path), "--adaptive"])
        assert exit_code == 0
        table = (tmp_path / "adaptive.txt").read_text()
        assert "adaptive model selection under churn" in table
        assert "best fixed:" in table
        assert "adaptive regret" in table
        assert "switch timeline" in table
        assert "live extraction over the event stack" in table
        assert "executed mode: batch" in table

    def test_new_models_flag_writes_both_figures(
        self, tmp_path, one_cell_config
    ):
        """``--new-models`` appends the post-paper scenario phase."""
        exit_code = main(["--out", str(tmp_path), "--new-models"])
        assert exit_code == 0
        fig1j = (tmp_path / "fig1j.txt").read_text()
        assert "Figure 1j" in fig1j
        assert "GS" in fig1j
        fig1k = (tmp_path / "fig1k.txt").read_text()
        assert "Figure 1k" in fig1k
        assert "GS measured" in fig1k and "GS predicted" in fig1k
        assert "WLM measured" in fig1k

    def test_without_faults_flag_no_robustness_table(
        self, tmp_path, one_cell_config
    ):
        assert main(["--out", str(tmp_path)]) == 0
        assert not (tmp_path / "faults.txt").exists()
        assert not (tmp_path / "adaptive.txt").exists()
        assert not (tmp_path / "fig1j.txt").exists()
        assert not (tmp_path / "fig1k.txt").exists()

    def test_bad_scale_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["--scale", "galactic", "--out", str(tmp_path)])

    def test_progress_output_is_flushed(
        self, tmp_path, monkeypatch, one_cell_config
    ):
        """Regression: progress prints were block-buffered when stdout is
        piped, so CI logs showed nothing until the slow WAN sweep ended.
        Every progress print must pass ``flush=True``."""
        import builtins

        unflushed = []
        real_print = builtins.print

        def spying_print(*args, **kwargs):
            if not kwargs.get("flush", False):
                unflushed.append(args)
            return real_print(*args, **kwargs)

        monkeypatch.setattr(builtins, "print", spying_print)
        assert main(["--out", str(tmp_path)]) == 0
        assert unflushed == []


class TestMonotonicTiming:
    """Regression: elapsed times were measured with ``time.time()``,
    which the fault subsystem's clock steps (and NTP) can move — a
    backwards step reported negative durations and absurd throughput.
    All CLI timing must ride ``time.perf_counter``."""

    def test_phase_progress_survives_a_backwards_clock_step(
        self, monkeypatch, capsys
    ):
        import time as time_module

        # A wall clock that leaps 1000 s backwards between construction
        # and the summary line; perf_counter is untouched.
        wall = iter([1_000_000.0] + [999_000.0] * 50)
        monkeypatch.setattr(time_module, "time", lambda: next(wall))

        progress = run_all_module._PhaseProgress("stepped")
        progress.finish(cells=4)
        out = capsys.readouterr().out
        assert " in -" not in out  # no negative elapsed time
        assert "stepped: 4 cells in " in out

    def test_main_summary_survives_a_backwards_clock_step(
        self, tmp_path, monkeypatch, capsys, one_cell_config
    ):
        import time as time_module

        wall = [1_000_000.0]

        def stepping_clock():
            wall[0] -= 50.0  # every look at the wall clock steps back
            return wall[0]

        monkeypatch.setattr(time_module, "time", stepping_clock)
        assert main(["--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "done in -" not in out
        assert " in -" not in out


class TestMetricsFlag:
    def test_metrics_dir_artifacts(self, tmp_path, tiny_configs):
        metrics_dir = tmp_path / "metrics"
        exit_code = main(
            ["--out", str(tmp_path / "out"), "--metrics", str(metrics_dir)]
        )
        assert exit_code == 0
        for name in (
            "manifest.json", "timeline.jsonl", "metrics.json", "metrics.txt"
        ):
            assert (metrics_dir / name).exists(), name

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_cache_counters_count_every_cell_for_any_jobs(
        self, tmp_path, tiny_configs, capsys, jobs
    ):
        # With ``--jobs 2`` the cells (and their cache lookups) run in
        # pool workers; the summary line and the manifest counters used
        # to read the parent's untouched copy: 0 hits, 0 misses, cold
        # and warm alike.
        out = tmp_path / "out"
        for warm in (False, True):
            metrics_dir = tmp_path / f"metrics-{warm}"
            argv = ["--out", str(out), "--jobs", jobs, "--metrics", str(metrics_dir)]
            assert main(argv) == 0
            hits, misses = (8, 0) if warm else (0, 8)
            assert (
                f"trace cache: {hits} hits, {misses} misses, 8 entries on disk"
                in capsys.readouterr().out
            )
            counters = json.loads((metrics_dir / "metrics.json").read_text())[
                "counters"
            ]
            assert (counters["cache.hits"], counters["cache.misses"]) == (
                hits, misses,
            )

    def test_no_metrics_flag_writes_nothing(self, tmp_path, tiny_configs):
        assert main(["--out", str(tmp_path / "out")]) == 0
        assert not (tmp_path / "metrics").exists()
