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
