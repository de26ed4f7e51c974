"""Tier-2 guard for the post-paper scenario families.

Two Monte-Carlo-versus-closed-form checks, each within 4 sigma of its
estimator's standard error:

- the Granular Synchrony ``P_GS = p^g`` closed form against the sampled
  satisfaction fraction of the canonical assumption matrix's predicate;
- the stability-window adversary's composed decision-round prediction
  ``(GSR - 1) + E[T_c(P_M)]`` against the simulated mean.

Plus the stabilization bound itself: under full suppression no run may
decide before the GSR, and every run must decide within a small
multiple of the clean-network expectation after it.  The rendered
comparison table lands in ``benchmarks/results/new_models.txt``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.equations import expected_rounds_exact, p_gs, p_wlm
from repro.analysis.montecarlo import estimate_p_model
from repro.analysis.stabilization import (
    predicted_decision_round,
    simulate_adversary_decision_rounds,
)
from repro.experiments.report import render_comparison
from repro.faults import StabilityWindowAdversary
from repro.models.properties import granular_link_count

N = 8
P_GRID = (0.95, 0.97, 0.99)
MC_SAMPLES = 4000
ADVERSARY_RUNS = 160
GSR = 20


@pytest.fixture(scope="module")
def gs_estimates():
    rows = []
    for p in P_GRID:
        closed = float(p_gs(p, N))
        measured = estimate_p_model("GS", p, N, samples=MC_SAMPLES, seed=7)
        sigma = math.sqrt(max(closed * (1.0 - closed), 1e-12) / MC_SAMPLES)
        rows.append((p, closed, measured, sigma))
    return rows


@pytest.fixture(scope="module")
def adversary_estimates():
    adversary = StabilityWindowAdversary(n=N, gsr_round=GSR, seed=11)
    rows = []
    for model, p_model_fn, leader in (
        ("GS", p_gs, None),
        ("WLM", p_wlm, 0),
    ):
        p = 0.97
        p_model = float(p_model_fn(p, N))
        predicted = predicted_decision_round(adversary, p_model, model)
        samples = simulate_adversary_decision_rounds(
            adversary, p, model, runs=ADVERSARY_RUNS, seed=3, leader=leader
        )
        rows.append((model, p_model, predicted, samples))
    return adversary, rows


def test_gs_closed_form_within_four_sigma(gs_estimates, save_result):
    lines = []
    for p, closed, measured, sigma in gs_estimates:
        lines.append((f"P_GS at p={p} (n={N})", closed, measured))
        assert abs(measured - closed) <= 4.0 * sigma + 1e-9, (
            f"p={p}: closed {closed:.6g} vs MC {measured:.6g} "
            f"(4-sigma {4 * sigma:.2g})"
        )
    save_result(
        "new_models_gs",
        render_comparison(
            f"Granular Synchrony closed form vs Monte-Carlo "
            f"({MC_SAMPLES} samples, g={granular_link_count(N)})",
            [(label, closed, measured) for label, closed, measured in lines],
        ),
    )


def test_adversary_prediction_within_four_sigma(
    adversary_estimates, save_result
):
    adversary, rows = adversary_estimates
    lines = []
    for model, _, predicted, samples in rows:
        mean = float(samples.mean())
        stderr = float(samples.std(ddof=1)) / math.sqrt(len(samples))
        lines.append((f"E[D_{model}] under adversary (GSR={GSR})",
                      predicted, mean))
        # The +0.5 floor absorbs the prediction's own discretization.
        assert abs(mean - predicted) <= 4.0 * stderr + 0.5, (
            f"{model}: predicted {predicted:.2f} vs simulated {mean:.2f} "
            f"(4-sigma {4 * stderr:.2f})"
        )
    save_result(
        "new_models_adversary",
        render_comparison(
            f"Stability-window adversary: predicted vs simulated decision "
            f"round ({ADVERSARY_RUNS} runs)",
            [(label, predicted, mean) for label, predicted, mean in lines],
        ),
    )


def test_no_decision_before_the_gsr(adversary_estimates):
    """Full suppression: the first satisfying round is at earliest the
    GSR, so no decision can complete before ``GSR + c - 1``."""
    _, rows = adversary_estimates
    for model, _, _, samples in rows:
        assert samples.min() >= GSR, (
            f"{model}: a run decided at round {samples.min():.0f}, "
            f"before the GSR ({GSR})"
        )


def test_every_run_decides_within_the_stabilization_bound(
    adversary_estimates,
):
    """Once stabilized the run is the clean IID process; every run must
    decide within a generous multiple of its run-length expectation."""
    _, rows = adversary_estimates
    for model, p_model, _, samples in rows:
        from repro.models.registry import get_model

        c = get_model(model).decision_rounds
        tail = expected_rounds_exact(p_model, c)
        bound = (GSR - 1) + 30.0 * max(tail, 1.0)
        assert samples.max() <= bound, (
            f"{model}: slowest run decided at {samples.max():.0f}, "
            f"beyond the stabilization bound {bound:.0f}"
        )


def test_combined_report(gs_estimates, adversary_estimates, save_result):
    _, rows = adversary_estimates
    combined = [
        (f"P_GS at p={p}", closed, measured)
        for p, closed, measured, _ in gs_estimates
    ] + [
        (f"E[D_{model}] under adversary (GSR={GSR})", predicted,
         float(samples.mean()))
        for model, _, predicted, samples in rows
    ]
    save_result(
        "new_models",
        render_comparison(
            "post-paper scenarios: closed forms vs Monte-Carlo", combined
        ),
    )
