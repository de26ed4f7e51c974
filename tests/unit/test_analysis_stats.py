"""Unit tests for summary statistics."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.stats import mean_confidence_interval, summarize


class TestMeanConfidenceInterval:
    def test_point_interval_for_single_value(self):
        assert mean_confidence_interval([3.0]) == (3.0, 3.0, 3.0)

    def test_interval_contains_mean(self):
        mean, low, high = mean_confidence_interval([1.0, 2.0, 3.0, 4.0])
        assert low <= mean <= high
        assert mean == pytest.approx(2.5)

    def test_zero_variance_collapses(self):
        mean, low, high = mean_confidence_interval([5.0] * 10)
        assert low == high == mean == 5.0

    def test_interval_shrinks_with_sample_size(self):
        rng = np.random.default_rng(0)
        small = rng.normal(size=10)
        large = rng.normal(size=1000)
        _, lo_s, hi_s = mean_confidence_interval(small)
        _, lo_l, hi_l = mean_confidence_interval(large)
        assert (hi_l - lo_l) < (hi_s - lo_s)

    def test_coverage_around_95_percent(self):
        rng = np.random.default_rng(1)
        covered = 0
        trials = 400
        for _ in range(trials):
            sample = rng.normal(loc=0.0, scale=1.0, size=30)
            _, low, high = mean_confidence_interval(sample)
            if low <= 0.0 <= high:
                covered += 1
        assert 0.90 < covered / trials < 0.99

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([])


class TestSummarize:
    def test_fields(self):
        summary = summarize([1.0, 2.0, 3.0])
        assert summary.mean == pytest.approx(2.0)
        assert summary.variance == pytest.approx(1.0)
        assert summary.count == 3
        assert summary.ci_low < summary.mean < summary.ci_high

    def test_single_value_zero_variance(self):
        summary = summarize([7.0])
        assert summary.variance == 0.0
        assert summary.ci_low == summary.ci_high == 7.0


#: Prints, after one CLI run in a fresh interpreter, every module it loaded.
_CLI_THEN_MODULES = (
    "import json, sys\n"
    "from repro.experiments.run_all import main\n"
    "main(sys.argv[1:])\n"
    "print(json.dumps(sorted(sys.modules)))\n"
)

#: What only an optional phase or the parallel engine runs: a plain
#: serial run must not pay for importing it.
_NOT_ON_THE_PLAIN_PATH = (
    "repro.adaptive",
    "repro.check",
    "repro.faults",
    "repro.giraf",
    "repro.sync",
    "repro.consensus",
    "repro.core",
    "repro.smr",
    "repro.oracles",
    "repro.service",
    "repro.experiments.robustness",
    "repro.experiments.selection",
    "repro.experiments.parallel",
    "multiprocessing",
)


def _cli_modules(out, *flags):
    """The CLI's quick run into ``out``; the modules it loaded."""
    src = Path(__file__).resolve().parents[2] / "src"
    completed = subprocess.run(
        [
            sys.executable, "-c", _CLI_THEN_MODULES,
            "--out", str(out), "--jobs", "1", "--no-cache", *flags,
        ],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return set(json.loads(completed.stdout.splitlines()[-1]))


def test_the_cli_imports_without_scipy(tmp_path):
    # numpy is the only declared runtime dependency and CI installs the
    # declared ones only: an import of scipy anywhere under the CLI
    # kills every job on a clean runner.  And a plain run imports only
    # the code it runs.
    modules = _cli_modules(tmp_path)
    assert "scipy" not in modules
    assert (tmp_path / "fig1i.txt").exists()
    assert [name for name in _NOT_ON_THE_PLAIN_PATH if name in modules] == []


def test_the_optional_phases_import_what_they_run(tmp_path):
    modules = _cli_modules(tmp_path, "--faults", "--check", "--adaptive")
    assert "scipy" not in modules
    for artifact in ("faults.txt", "conformance.txt", "adaptive.txt"):
        assert (tmp_path / artifact).exists(), artifact
    assert {
        "repro.adaptive", "repro.check", "repro.experiments.robustness"
    } <= modules
