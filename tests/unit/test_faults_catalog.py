"""The plan catalogue: one builder per named plan, one instance per
arguments."""

import re

import pytest

from repro.experiments.robustness import canonical_plans
from repro.faults.catalog import CATALOG, build
from repro.faults.plan import FaultPlan


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_a_plan_builds_at_its_minimum_and_not_one_round_below(name):
    minimum, _ = CATALOG[name]
    assert isinstance(build(name, 8, minimum), FaultPlan)
    refusal = f"the '{name}' plan needs at least {minimum} rounds"
    with pytest.raises(ValueError, match=re.escape(refusal)):
        build(name, 8, minimum - 1)


def test_the_conformance_plans_declare_the_rounds_their_windows_need():
    assert {name: minimum for name, (minimum, _) in CATALOG.items()} == {
        "canonical": 40, "canonical-batch": 40, "adversary": 60,
        "crash+recover": 0, "loss burst": 0, "partition": 0, "slow node": 0,
        "leader churn": 0,
    }


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_equal_arguments_share_one_plan(name):
    plan = build(name, 8, 120, 3)
    assert build(name, 8, 120, 3) is plan
    assert build(name, 8, 120, seed=3) is plan
    assert build(name, 8, 120) is build(name, 8, 120, 0) is not plan


def test_the_faults_table_reads_the_catalogues_five_classes():
    plans = canonical_plans(8, 300, 5)
    assert list(plans) == [
        "crash+recover", "loss burst", "partition", "slow node", "leader churn"
    ]
    for name, plan in plans.items():
        assert plan is build(name, 8, 300, 5)
