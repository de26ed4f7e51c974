"""Tier-2 conformance benchmark: the two execution stacks must agree.

Runs the full :mod:`repro.check` sweep — differential validation of the
lockstep and event-driven stacks on four network profiles (including the
Granular Synchrony wrapped WAN), clean, under the canonical fault plan,
and under the eventually stabilizing message adversary, runtime
invariant checkers attached to
every consensus run, the Monte-Carlo-versus-closed-form cross-check, and
the mutation self-test — and writes the rendered report to
``benchmarks/results/conformance.txt``.
"""

from __future__ import annotations

import math

import pytest

from repro.check import conformance_report, run_conformance
from repro.obs.registry import MetricsRegistry


@pytest.fixture(scope="module")
def conformance():
    metrics = MetricsRegistry(enabled=True)
    report = run_conformance(seed=0, metrics=metrics)
    return report, metrics


def test_conformance_report(conformance, save_result):
    report, _ = conformance
    save_result("conformance", conformance_report(report).rstrip("\n"))

    # Coverage: four profiles, each clean, under the canonical fault
    # plan, and under the stability-window adversary.
    assert len(report.results) == 12
    assert {r.profile for r in report.results} == {
        "planetlab-wan", "lan", "uniform-wan", "granular-wan",
    }
    assert {r.fault for r in report.results} == {
        "none", "canonical", "adversary",
    }
    # Plus the scalar-vs-batched axis on each profile's static variant —
    # clean and under the canonical batch-eligible fault plan — one
    # adversary-plan run on the granular profile, and the robustness
    # phase's crash-recovery and leader-churn plans on the PlanetLab WAN.
    assert len(report.batch_axis) == 11
    assert {r.profile for r in report.batch_axis} == {
        "planetlab-wan [scalar-vs-batched]",
        "lan [scalar-vs-batched]",
        "uniform-wan [scalar-vs-batched]",
        "granular-wan [scalar-vs-batched]",
    }
    assert {r.fault for r in report.batch_axis} == {
        "none", "canonical-batch", "adversary-batch",
        "crash+recover", "leader churn",
    }


def test_stacks_agree_on_every_scenario(conformance):
    report, _ = conformance
    for result in report.results:
        bad = [row for row in result.rows if not row.ok]
        assert not bad, (
            f"{result.profile} (faults={result.fault}) disagrees: "
            + "; ".join(
                f"{row.quantity}: lockstep={row.lockstep} event={row.event} "
                f"tol={row.tolerance}"
                for row in bad
            )
        )


#: The two-stack rows whose event run executes on the round grid.
GRID_ROWS = {
    (profile, fault)
    for profile in ("uniform-wan", "granular-wan")
    for fault in ("none", "adversary")
}


def _band(row) -> float:
    """The statistical band a banded row keeps: p 0.10, P_M 0.25, sync
    error 0.6 timeouts, D_WLM max(6, 0.8 * the idealization's mean)."""
    if row.quantity == "measured p":
        return 0.10
    if row.quantity.startswith("P_"):
        return 0.25
    if row.quantity == "sync error / timeout":
        return 0.6
    assert row.quantity == "D_WLM rounds", row.quantity
    return 6.0 if math.isnan(row.lockstep) else max(6.0, 0.8 * row.lockstep)


def test_grid_rows_are_exact_and_the_rest_keep_their_bands(conformance):
    report, _ = conformance
    exact = [r for r in report.results if (r.profile, r.fault) in GRID_ROWS]
    assert len(exact) == len(GRID_ROWS)
    for result in report.results:
        where = (result.profile, result.fault)
        if where in GRID_ROWS:
            assert result.kind.startswith("exact"), where
            assert [row.quantity for row in result.rows[-2:]] == [
                "identical: matrices", "identical: decisions",
            ]
            for row in result.rows:
                assert row.tolerance == 0.0 and row.ok, (where, row)
        else:
            assert result.kind.startswith("banded"), where
            for row in result.rows:
                assert row.tolerance == _band(row), (where, row)


def test_batched_path_is_bit_identical(conformance):
    report, _ = conformance
    for result in report.batch_axis:
        bad = [row for row in result.rows if not row.ok]
        assert not bad, (
            f"{result.profile} diverges: "
            + "; ".join(row.quantity for row in bad)
        )


def test_zero_invariant_violations(conformance):
    report, metrics = conformance
    for result in report.results:
        assert not result.violations, (
            f"{result.profile} (faults={result.fault}): "
            + "; ".join(f"{stack}: {v}" for stack, v in result.violations)
        )
    # The suites also mirror violations into the metrics registry; the
    # real runs must not have touched the counter (the mutation self-test
    # uses its own un-metered suites below).
    snapshot = metrics.snapshot()
    violation_counters = {
        key: value
        for key, value in snapshot.get("counters", {}).items()
        if "check.violations" in key
    }
    assert all(value == 0 for value in violation_counters.values()), (
        violation_counters
    )


def test_montecarlo_matches_closed_forms(conformance):
    report, _ = conformance
    assert report.mc_rows, "Monte-Carlo cross-check produced no rows"
    for row in report.mc_rows:
        assert row.ok, (
            f"{row.quantity}: closed={row.lockstep} mc={row.event} "
            f"tol={row.tolerance} kind={row.kind}"
        )


def test_mutation_smoke(conformance):
    """The self-test of the self-test: a deliberately broken Algorithm 2
    must trip the agreement checker, and the intact one must not."""
    report, _ = conformance
    assert report.mutation_detected, (
        "the agreement checker failed to flag the majApproved-stripped "
        "Algorithm 2 on its adversarial schedule"
    )
    assert report.mutation_clean, (
        "the intact Algorithm 2 was flagged on the adversarial schedule"
    )
    assert report.ok
