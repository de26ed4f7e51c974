"""The census refuses a run that ended before its last test."""

import pytest

from tests.census import finished

ORDER = ["t.py::a", "t.py::b", "t.py::c"]


def test_a_run_with_every_outcome_gives_its_failures():
    report = {
        "order": ORDER,
        "outcomes": {"t.py::a": "passed", "t.py::b": "failed", "t.py::c": "skipped"},
        "failed": ["t.py::b"],
    }
    assert finished("some-mutant", report) == (ORDER, {"t.py::b"})


def test_a_truncated_run_is_refused_and_names_its_mutant():
    report = {
        "order": ORDER,
        "outcomes": {"t.py::a": "failed"},
        "failed": ["t.py::a"],
    }
    with pytest.raises(RuntimeError, match="some-mutant ended after 1 of 3 tests, before t.py::b"):
        finished("some-mutant", report)
