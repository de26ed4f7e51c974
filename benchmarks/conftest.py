"""Shared fixtures for the benchmark suite.

Every benchmark regenerates one table or figure of the paper (see the
experiment index in DESIGN.md), asserts its *shape* conclusions, and
writes the rendered table to ``benchmarks/results/<name>.txt`` — those
files are the source of EXPERIMENTS.md.

Scale: benchmarks default to the QUICK sweep (seconds).  Set
``REPRO_BENCH_SCALE=paper`` to run the paper's full 33-runs-by-300-rounds
protocol (minutes).

The committed sweep-derived tables are the paper-scale ones, so a run at
any other scale writes its sweep-derived tables under pytest's
``tmp_path`` instead of over them (see :func:`save_result`).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.config import PAPER, PAPER_LAN, QUICK, QUICK_LAN
from repro.experiments.figures import run_wan_sweep

RESULTS_DIR = Path(__file__).parent / "results"


def bench_scale() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "quick").lower()


#: The scale ``benchmarks/results/`` holds the sweep-derived tables at.
COMMITTED_SCALE = "paper"

#: The scale-selected fixtures: a table computed from one of these is
#: *sweep-derived* and differs between scales.
SWEEP_FIXTURES = frozenset({"wan_sweep", "lan_config"})


@pytest.fixture(scope="session")
def committed_scale() -> bool:
    """Is this run at the scale the committed tables were generated at?

    Guards whose claim the quick sweep's 6 runs cannot resolve on point
    estimates keep their exact form at the committed scale and compare
    within the sampling error elsewhere.
    """
    return bench_scale() == COMMITTED_SCALE


@pytest.fixture(scope="session")
def wan_config():
    return PAPER if bench_scale() == "paper" else QUICK


@pytest.fixture(scope="session")
def lan_config():
    return PAPER_LAN if bench_scale() == "paper" else QUICK_LAN


@pytest.fixture(scope="session")
def wan_sweep(wan_config):
    """One shared WAN sweep for the measured figures (1d-1i)."""
    return run_wan_sweep(wan_config)


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def save_result(results_dir, committed_scale, request, tmp_path):
    """``save_result(name, text)``: record a rendered table.

    A sweep-derived table goes to ``benchmarks/results/`` only at the
    scale the committed one was generated at; at any other scale it is
    written under ``tmp_path``, leaving the committed table alone.
    """
    sweep_derived = not SWEEP_FIXTURES.isdisjoint(request.fixturenames)
    directory = tmp_path if sweep_derived and not committed_scale else results_dir

    def save(name: str, text: str) -> None:
        (directory / f"{name}.txt").write_text(text + "\n")

    return save
