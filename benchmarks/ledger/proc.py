"""Child processes: spawn, wait, and account wall, CPU and peak RSS.

Every repetition of every workload is a fresh child, reaped with
``os.wait4`` so CPU time and peak resident set are *that child's* (the
cumulative ``RUSAGE_CHILDREN`` maximum would hide every child smaller
than the largest one before it).
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

#: The checkout this package sits in (``benchmarks/ledger/`` is two down).
ROOT = Path(__file__).resolve().parents[2]

#: Scratch space: inside the checkout (the driver forbids writing
#: elsewhere), ignored by git, removed when the run ends.
WORK_ROOT = ROOT / ".ledger_work"


class ChildFailed(RuntimeError):
    """A child exited non-zero or printed no result line."""


@dataclass
class Completed:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    stdout: str

    def result(self) -> dict:
        """The JSON object on the child's last stdout line."""
        lines = self.stdout.strip().splitlines()
        if not lines:
            raise ChildFailed("child printed nothing")
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError as exc:
            raise ChildFailed(f"no JSON on the child's last line: {exc}")


def require_program() -> None:
    """Exit non-zero when the program under test is not in the checkout."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(
            f"benchmarks.ledger: no program to measure — {ROOT}/src/repro "
            "is missing (the ledger only holds the harness)"
        )


def exit_on_sigterm() -> None:
    """Turn SIGTERM into ``SystemExit`` so children are killed and the
    work directory removed on the way out, as on Ctrl-C."""
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))


def child_env() -> dict:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    paths = [str(ROOT / "src"), str(ROOT)]
    if extra:
        paths.append(extra)
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def spawn(args: Sequence[str], check: bool = True) -> Completed:
    """Run ``args`` to completion; wall is spawn-to-exit."""
    begin = time.perf_counter()
    process = subprocess.Popen(
        list(args),
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,  # its own group: one kill reaches its pool
    )
    try:
        stdout = process.stdout.read()
        _, status, usage = os.wait4(process.pid, 0)
    except BaseException:
        # Interrupted or terminated (see exit_on_sigterm): leave nothing
        # running behind — the child, its pool workers, its probes.
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise
    finally:
        process.stdout.close()
    wall = time.perf_counter() - begin
    returncode = os.waitstatus_to_exitcode(status)
    # Popen must not wait a second time for a pid that is already reaped.
    process.returncode = returncode
    completed = Completed(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        returncode=returncode,
        stdout=stdout,
    )
    if check and returncode != 0:
        tail = "\n".join(stdout.strip().splitlines()[-15:])
        raise ChildFailed(
            f"{' '.join(args[:6])} ... exited {returncode}:\n{tail}"
        )
    return completed


def python(*args: str, check: bool = True) -> Completed:
    return spawn([sys.executable, *args], check=check)


def ledger_child(
    workload: str,
    phase: str,
    seed: int,
    size: str,
    work: Path,
    *extra: str,
) -> Completed:
    """Run ``benchmarks.ledger.child`` for one phase of one workload."""
    return python(
        "-m", "benchmarks.ledger.child",
        "--workload", workload, "--phase", phase, "--seed", str(seed),
        "--size", size, "--work", str(work), *extra,
    )


class WorkDir:
    """A fresh scratch directory under :data:`WORK_ROOT`, removed on exit."""

    def __init__(self, label: str) -> None:
        self._label = label
        self.path: Optional[Path] = None
        self._count = 0

    def __enter__(self) -> "WorkDir":
        WORK_ROOT.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix=self._label + "-", dir=WORK_ROOT))
        return self

    def __exit__(self, *exc_info: object) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # only when no other run is using it
        except OSError:
            pass

    def fresh(self, label: str) -> Path:
        """A new empty subdirectory."""
        self._count += 1
        path = self.path / f"{label}-{self._count}"
        path.mkdir()
        return path
