"""The six workloads, parent side: set-up, one repetition, the traced pass.

Stdlib only — the parent never imports :mod:`repro`.  A repetition is a
fresh child process: the real CLI for the three CLI workloads,
``benchmarks.ledger.child`` for the others.  Both entry points
(``run.py`` for one workload, ``__main__`` for the full ledger) drive
the same :class:`Workload` objects.

Correctness feeds ``failed``/``attempted``: every artifact or result
digest is compared with the first digest seen under the same name in the
workload's state (the set-up's cold CLI run seeds it for the warm
workloads, so "cold == warm on the shared files" and "identical across
repetitions" are one mechanism), plus the workload's own verdict checks.
"""

from __future__ import annotations

import hashlib
import re
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from benchmarks.ledger import proc, spec
from benchmarks.ledger.stats import percentile

#: File (in the work dir) carrying served_mixed's reference digests from
#: its set-up child to its repetition children.
SERVED_STATE = "served_reference.json"

#: File (in the traced child's work dir) the spans are written to at exit.
SPANS_FILE = "spans.json"

#: (LAN, WAN) cells of the CLI's sweep, by scale.
CLI_CELLS = {"paper": (330, 363), "quick": (60, 66)}


def artifact_digests(out: Path) -> dict[str, str]:
    """sha256 of every ``*.txt`` artifact directly in ``out``, by name."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.glob("*.txt"))
    }


@dataclass
class Context:
    seed: int
    size: str  # "full" | "tiny"
    work: proc.WorkDir
    #: Self-test fault injection: "corrupt" (a CLI artifact) or "reject"
    #: (served_mixed admission); never set by a measuring run.
    inject: str = "none"


@dataclass
class State:
    """What a workload's set-up leaves for its repetitions."""

    attempted: int = 0
    failed: int = 0
    cache_dir: Optional[Path] = None
    #: name -> first digest seen; later sightings must match.
    reference: dict[str, str] = field(default_factory=dict)


@dataclass
class Rep:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    work: float
    work_seconds: float
    op_ms: list[float]
    attempted: int
    failed: int
    exact: dict = field(default_factory=dict)
    #: Host speed while this repetition ran, against the calm machine
    #: (``measure.Gauge``); the durations above are raw.
    slowdown: float = 1.0

    def metrics(self) -> dict[str, float]:
        """This repetition's value of every end-to-end metric but set-up,
        durations corrected for the host's speed."""
        return {
            "wall_s": self.wall_s / self.slowdown,
            "cpu_s": self.cpu_s / self.slowdown,
            "peak_rss_mb": self.peak_rss_mb,
            "work_per_s": self.work / self.work_seconds * self.slowdown,
            "op_p50_ms": percentile(self.op_ms, 50) / self.slowdown,
        }


@dataclass
class Traced:
    rows: dict
    attempted: int
    failed: int
    #: Where the traced child wrote its spans (gone with the work dir).
    spans_file: Path


def check_digests(state: State, digests: dict[str, str]) -> tuple[int, int]:
    """Compare with (and extend) the state's reference; (attempted, failed)."""
    attempted = failed = 0
    for name, digest in digests.items():
        first = state.reference.setdefault(name, digest)
        attempted += 1
        failed += first != digest
    return attempted, failed


def _overhead_row(untraced: dict, traced: dict) -> dict:
    return {
        "value": traced["wall_s"] / untraced["wall_s"],
        "base": {"traced_wall_s": traced["wall_s"],
                 "untraced_wall_s": untraced["wall_s"]},
    }


class Workload:
    #: Set-ups per driver run (the median is reported): three where one
    #: costs a second or two, one where it is a whole cold CLI run and the
    #: driver's time cap decides.  The full run always makes three.
    setups = 3

    def __init__(self, name: str) -> None:
        self.name = name
        self.spec = next(w for w in spec.WORKLOADS if w.name == name)

    def setup(self, ctx: Context) -> State:
        raise NotImplementedError

    def rep(self, ctx: Context, state: State) -> Rep:
        raise NotImplementedError

    def traced(self, ctx: Context, state: State) -> Traced:
        """Untraced and traced child of the same section; the traced one
        also carries this workload's span rows and probes."""
        extra = self._section_args(state)
        plain = proc.ledger_child(
            self.name, "section", ctx.seed, ctx.size,
            self._section_work(ctx, "plain"), "--traced", "0", *extra).result()
        spans_work = self._section_work(ctx, "spans")
        spans = proc.ledger_child(
            self.name, "section", ctx.seed, ctx.size, spans_work,
            "--traced", "1", *extra).result()
        rows = spans["rows"]
        rows["trace_overhead_ratio"] = _overhead_row(plain, spans)
        attempted = plain["attempted"] + spans["attempted"]
        failed = plain["failed"] + spans["failed"]
        for result in (plain, spans):
            a, f = check_digests(state, self._section_digests(result))
            attempted, failed = attempted + a, failed + f
        return Traced(rows, attempted, failed, spans_work / SPANS_FILE)

    def _section_args(self, state: State) -> list[str]:
        return []

    def _section_work(self, ctx: Context, label: str) -> Path:
        return ctx.work.path

    def _section_digests(self, result: dict) -> dict[str, str]:
        return {"section": result["digest"]}


# ----------------------------------------------------------------------
# The CLI workloads.
# ----------------------------------------------------------------------
_CACHE_LINE = re.compile(r"trace cache: (\d+) hits, (\d+) misses")


def cli_argv(out: Path, scale: str, cache_dir: Optional[Path],
             flags: tuple[str, ...]) -> list[str]:
    """The arguments of ``python -m repro.experiments`` — and of
    ``run_all.main``, which the traced pass calls in-process."""
    argv = ["--scale", scale, "--jobs", "1", "--out", str(out), *flags]
    if cache_dir is not None:
        argv += ["--cache-dir", str(cache_dir)]
    return argv


def cache_counts(stdout: str) -> tuple[int, int]:
    """(hits, misses) from the CLI's own summary line, (-1, -1) without one."""
    counts = _CACHE_LINE.findall(stdout)
    return (int(counts[-1][0]), int(counts[-1][1])) if counts else (-1, -1)


class CliWorkload(Workload):
    """``python -m repro.experiments --scale paper --jobs 1 ...``."""

    def __init__(self, name: str, warm: bool, flags: tuple[str, ...] = ()) -> None:
        super().__init__(name)
        self.warm = warm
        self.flags = flags
        if warm:
            self.setups = 1  # a whole cold paper-scale run

    @staticmethod
    def _scale(ctx: Context) -> str:
        return "paper" if ctx.size == "full" else "quick"

    def _cli(self, out: Path, scale: str, cache_dir: Optional[Path],
             flags: tuple[str, ...]) -> proc.Completed:
        return proc.python(
            "-m", "repro.experiments", *cli_argv(out, scale, cache_dir, flags),
            check=False)

    def setup(self, ctx: Context) -> State:
        state = State(attempted=1)
        out = ctx.work.fresh("setup")
        if self.warm:
            # Populate the cache with the cold run whose artifacts every
            # warm repetition's shared files must equal.
            state.cache_dir = ctx.work.fresh("cache")
            done = self._cli(out, self._scale(ctx), state.cache_dir, ())
            check_digests(state, artifact_digests(out))
        else:
            # Nothing to populate: a quick-scale run warms the OS file
            # cache and the .pyc files the repetitions will read.
            done = self._cli(out, "quick", None, ())
        state.failed = int(done.returncode != 0)
        shutil.rmtree(out, ignore_errors=True)
        return state

    def rep(self, ctx: Context, state: State) -> Rep:
        scale = self._scale(ctx)
        out = ctx.work.fresh("out")
        done = self._cli(out, scale, state.cache_dir, self.flags)
        if ctx.inject == "corrupt":
            with open(out / "fig1d.txt", "a") as artifact:
                artifact.write("corrupted by the self-test\n")
        attempted, failed = check_digests(state, artifact_digests(out))
        shutil.rmtree(out, ignore_errors=True)

        verdicts = [done.returncode == 0]
        hits, misses = cache_counts(done.stdout)
        cells = sum(CLI_CELLS[scale])
        verdicts.append((hits, misses) == ((cells, 0) if self.warm else (0, cells)))
        if "--check" in self.flags:
            verdicts.append("conformance.txt (PASS)" in done.stdout)
        if "--adaptive" in self.flags:
            verdicts.append(", 0 violations," in done.stdout)
        attempted += len(verdicts)
        failed += verdicts.count(False)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-2000:])
        return Rep(
            wall_s=done.wall_s, cpu_s=done.cpu_s, peak_rss_mb=done.peak_rss_mb,
            work=cells, work_seconds=done.wall_s, op_ms=[done.wall_s * 1e3],
            attempted=attempted, failed=failed,
            exact={"cache_hits": hits, "cache_misses": misses},
        )

    def _section_args(self, state: State) -> list[str]:
        if state.cache_dir is None:
            return []
        return ["--cache-dir", str(state.cache_dir)]

    def _section_work(self, ctx: Context, label: str) -> Path:
        return ctx.work.fresh(label)  # each in-process run writes artifacts

    def _section_digests(self, result: dict) -> dict[str, str]:
        # Per artifact, so the in-process run is held to the real CLI's
        # bytes wherever the state has seen them.
        return result["artifacts"]


class ChildWorkload(Workload):
    """Set-up and section both run in ``benchmarks.ledger.child``."""

    def setup(self, ctx: Context) -> State:
        result = proc.ledger_child(
            self.name, "setup", ctx.seed, ctx.size, ctx.work.path).result()
        return State(attempted=result["attempted"], failed=result["failed"])

    def rep(self, ctx: Context, state: State) -> Rep:
        extra = ("--inject", ctx.inject) if ctx.inject == "reject" else ()
        done = proc.ledger_child(
            self.name, "section", ctx.seed, ctx.size, ctx.work.path, *extra)
        result = done.result()
        attempted, failed = check_digests(state, {"section": result["digest"]})
        return Rep(
            wall_s=result["wall_s"], cpu_s=done.cpu_s,
            peak_rss_mb=done.peak_rss_mb, work=result["work"],
            work_seconds=result["work_seconds"], op_ms=result["op_ms"],
            attempted=attempted + result["attempted"],
            failed=failed + result["failed"],
            exact=result["exact"],
        )


WORKLOADS: dict[str, Workload] = {
    "sweep_cold": CliWorkload("sweep_cold", warm=False),
    "sweep_warm": CliWorkload("sweep_warm", warm=True),
    "phases_full": CliWorkload(
        "phases_full", warm=True,
        flags=("--faults", "--check", "--adaptive", "--new-models")),
    "sync_batch": ChildWorkload("sync_batch"),
    "sync_fallback": ChildWorkload("sync_fallback"),
    "served_mixed": ChildWorkload("served_mixed"),
}
