"""The mutant census: which tests notice which hand-written bug.

``PYTHONPATH=src python -m tests.census`` runs tier-1 once on the real
code and once per row of :data:`tests.mutants.MUTANTS`, each in a
subprocess and without ``-x``, two mutant runs at a time.  A test
*kills* a mutant when it passes on the real code and fails with the
mutant installed.  Every mutant's killers are printed, and
``benchmarks/results/mutants.txt`` gets one row per mutant (layer,
mutant, what it breaks, number of killers, first killer in collection
order), the equivalent mutants apart, and totals.

``--check`` is CI's quick form: each row's first killer must fail with
its mutant and pass without it, and the table and the file must name the
same mutants.

A run gets its mutant through a pytest plugin object, so pytest gains no
option.  Runs use ``--hypothesis-seed=0``, no cache provider and a
throwaway example database: the killer lists repeat, and mutant failures
never reach ``.hypothesis/``.  A mutant lives in the pytest process only,
so a test that runs the code in a child interpreter cannot kill it.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from tests.mutants import EQUIVALENT, MUTANTS, by_name

ROOT = Path(__file__).resolve().parents[1]
TABLE = ROOT / "benchmarks" / "results" / "mutants.txt"
BOOT = (
    "import sys, pytest\nfrom tests.census import CensusPlugin\n"
    "sys.exit(pytest.main(sys.argv[4:], plugins=[CensusPlugin(*sys.argv[1:4])]))"
)


class Expired(BaseException):
    """A test ran out of time.  Not an ``Exception``, so Hypothesis does
    not catch it to shrink an example that hangs again."""


class CensusPlugin:
    """Installs ``mutant`` (none for ``""``) for a whole pytest run and
    writes the run's collection order, every test's outcome and the
    failed node ids to ``out``.  A test still running after
    :attr:`TEST_SECONDS` (a mutant can leave a job undispatched forever)
    fails, and so counts as a killer."""

    TEST_SECONDS = 30

    def __init__(self, mutant: str, out: str, database: str) -> None:
        self.mutant, self.out, self.database = mutant, out, database
        self.order: list[str] = []
        self.outcomes: dict[str, str] = {}
        self.failed: set[str] = set()
        self.patch = pytest.MonkeyPatch()

    def pytest_configure(self, config):
        from hypothesis import settings
        from hypothesis.database import DirectoryBasedExampleDatabase

        database = DirectoryBasedExampleDatabase(self.database)
        settings.register_profile("census", database=database)
        settings.load_profile("census")
        if self.mutant:
            by_name(self.mutant).install(self.patch)

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(self, item):
        def expire(signum, frame):
            raise Expired(f"over {self.TEST_SECONDS} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(self.TEST_SECONDS)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    @pytest.hookimpl(wrapper=True, tryfirst=True)
    def pytest_runtest_makereport(self, item, call):
        try:
            return (yield)
        except Exception as error:
            # An alarm can land where pytest cannot render the failure (a
            # traceback entry with no line number, a parser left in a bad
            # state), and an error here would end the session: the test
            # failed all the same.
            return pytest.TestReport(
                item.nodeid, item.location, {}, "failed",
                f"{call.excinfo.exconly()} (unrenderable: {error!r})", call.when,
            )

    def pytest_collection_finish(self, session):
        self.order = [item.nodeid for item in session.items]

    def pytest_runtest_logreport(self, report):
        if report.failed:
            self.failed.add(report.nodeid)
        # A test's outcome is its call's, or its setup's when that did
        # not pass (a skip or an error, and then no call follows).
        if report.when == "call" or (report.when == "setup" and not report.passed):
            self.outcomes[report.nodeid] = report.outcome

    pytest_collectreport = pytest_runtest_logreport

    def pytest_unconfigure(self, config):
        self.patch.undo()
        report = {
            "order": self.order, "outcomes": self.outcomes,
            "failed": sorted(self.failed),
        }
        Path(self.out).write_text(json.dumps(report))


def finished(mutant: str, report: dict) -> tuple[list[str], set[str]]:
    """A run's collection order and failures, refused when some collected
    test has no outcome: the run ended early, so its failures would
    under-count the mutant's killers."""
    order, outcomes = report["order"], report["outcomes"]
    unfinished = [node for node in order if node not in outcomes]
    if unfinished:
        raise RuntimeError(
            f"the run under {mutant or 'the real code'} ended after"
            f" {len(order) - len(unfinished)} of {len(order)} tests,"
            f" before {unfinished[0]}"
        )
    return order, set(report["failed"])


def run_suite(mutant: str = "", tests: tuple[str, ...] = ()) -> tuple[list[str], set[str]]:
    """One pytest run of ``tests`` (all of tier-1 by default) with
    ``mutant`` installed: its collection order and its failures
    (:func:`finished`)."""
    with tempfile.TemporaryDirectory() as scratch:
        out, database = os.path.join(scratch, "run.json"), os.path.join(scratch, "db")
        path = [str(ROOT / "src"), str(ROOT), os.environ.get("PYTHONPATH", "")]
        subprocess.run(
            [sys.executable, "-c", BOOT, mutant, out, database, "-q",
             "-p", "no:cacheprovider", "--hypothesis-seed=0",
             "--continue-on-collection-errors", *tests],
            cwd=ROOT, env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=3600,
        )
        report = json.loads(Path(out).read_text())
    return finished(mutant, report)


def census() -> str:
    """Run the census; print every mutant's killers; return the table."""
    order, broken = run_suite()
    rank = {node: i for i, node in enumerate(order)}
    print(f"real code: {len(order)} tests, {len(broken)} failing", flush=True)
    rows, killed = [], 0
    mutants = sorted(MUTANTS, key=lambda m: (m.layer, m.name))
    with ThreadPoolExecutor(max_workers=2) as pool:  # each run is a subprocess
        runs = pool.map(lambda mutant: run_suite(mutant.name)[1], mutants)
        for mutant, failed in zip(mutants, runs):
            killers = sorted(failed - broken, key=lambda t: (rank.get(t, -1), t))
            killed += bool(killers)
            print(f"{mutant.layer} {mutant.name}: {len(killers)} killers", flush=True)
            print("".join(f"    {node}\n" for node in killers), end="", flush=True)
            first = killers[0] if killers else "SURVIVED"
            rows.append((mutant.layer, mutant.name, mutant.breaks, len(killers), first))
    lines = [
        "# Mutant census (python -m tests.census): tier-1 once per mutant.",
        "# layer  mutant  what it breaks  killers  first killer",
        *rows,
        "",
        "# Equivalent: no input tells them from the real code.",
        "# layer  mutant  what it breaks  reason",
        *((e.layer, e.name, e.breaks, e.reason) for e in EQUIVALENT),
        "",
        f"total: {len(MUTANTS)} mutants, {killed} killed, {len(MUTANTS) - killed}"
        f" survived; {len(EQUIVALENT)} equivalent; {len(order)} tests",
    ]
    return "".join(
        ("  ".join(map(str, line)) if isinstance(line, tuple) else line) + "\n"
        for line in lines
    )


def check() -> list[str]:
    """What is wrong with ``mutants.txt`` against the code and the table."""
    first, equivalent, killable = {}, set(), True
    for line in TABLE.read_text().splitlines():
        killable = killable and not line.startswith("# Equivalent")
        if line and not line.startswith(("#", "total:")):
            cells = re.split(r"\s{2,}", line)
            if killable:
                first[cells[1]] = cells[4]
            else:
                equivalent.add(cells[1])
    if set(first) != {m.name for m in MUTANTS}:
        return [f"mutants.txt names {sorted(first)}, the table {sorted(m.name for m in MUTANTS)}"]
    if equivalent != {e.name for e in EQUIVALENT}:
        return [f"mutants.txt lists the equivalents {sorted(equivalent)}"]
    failed = run_suite("", tuple(sorted(set(first.values()))))[1]
    problems = [f"{node} fails on the real code" for node in sorted(failed)]
    rows = sorted(first.items())
    with ThreadPoolExecutor(max_workers=2) as pool:  # each run is a subprocess
        runs = pool.map(lambda row: run_suite(row[0], (row[1],)), rows)
        for (name, node), (order, failed) in zip(rows, runs):
            print(f"{name}: {node} {'kills' if node in failed else 'MISSES'}", flush=True)
            if node not in order or node not in failed:
                problems.append(f"{node} does not kill {name}")
    return problems


def main(args: list[str]) -> int:
    if args == ["--check"]:
        problems = check()
        print("".join(f"census check: {p}\n" for p in problems), end="", file=sys.stderr)
        return 1 if problems else 0
    if args:
        print("usage: python -m tests.census [--check]", file=sys.stderr)
        return 2
    TABLE.write_text(census())
    print(TABLE.read_text(), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
