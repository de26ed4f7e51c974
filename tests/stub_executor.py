"""A manually driven :class:`~repro.experiments.parallel.CellExecutor`.

Test support for the sweep service's concurrency properties: ``submit``
parks ``(task, arg)`` on :attr:`StubCellExecutor.pending` and returns an
unresolved future; the test drives completion with
:meth:`~StubCellExecutor.run_next` / :meth:`~StubCellExecutor.run_all`
(which compute ``task(arg)`` inline) or
:meth:`~StubCellExecutor.fail_next`.  That gives deterministic control
over completion order and shows exactly what the scheduler dispatched,
and when.
"""

from __future__ import annotations

from concurrent.futures import Future
from typing import Any, Callable

from repro.experiments.parallel import CellExecutor


class StubCellExecutor(CellExecutor):
    """An executor that never computes on its own.

    ``submitted`` counts every submission ever made, so "exactly one
    computation for N identical jobs" is directly checkable.
    """

    inline = False

    def __init__(self, workers: int = 2) -> None:
        self.workers = max(1, int(workers))
        #: Parked submissions, oldest first: ``(task, arg, future)``.
        self.pending: list[tuple[Callable[[Any], Any], Any, Future]] = []
        #: Total submissions ever made.
        self.submitted = 0

    def submit(self, task: Callable[[Any], Any], arg: Any) -> Future:
        self.submitted += 1
        future: Future = Future()
        self.pending.append((task, arg, future))
        return future

    def run_next(self, index: int = 0) -> Any:
        """Compute and resolve the pending submission at ``index``."""
        task, arg, future = self.pending.pop(index)
        try:
            result = task(arg)
        except BaseException as exc:
            future.set_exception(exc)
            raise
        future.set_result(result)
        return result

    def run_all(self) -> int:
        """Compute every currently pending submission; returns the count."""
        count = 0
        while self.pending:
            self.run_next()
            count += 1
        return count

    def fail_next(self, exc: BaseException, index: int = 0) -> None:
        """Resolve the pending submission at ``index`` with ``exc``."""
        _task, _arg, future = self.pending.pop(index)
        future.set_exception(exc)
