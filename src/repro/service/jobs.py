"""Typed job specs for the sweep service.

A :class:`JobSpec` is one client request — a WAN sweep or a single
interactive decision query — expressed as independent cell tasks plus
an assembly step:

- :meth:`JobSpec.cells` returns picklable ``(task, args)`` pairs (the
  engine's cells-as-tasks surface, :mod:`repro.experiments.parallel`),
  each a pure function of its arguments.  Cells are the scheduling
  unit: a paper-scale sweep is hundreds of short tasks, so an
  interactive query never waits behind more than one in-flight cell
  per worker.
- :meth:`JobSpec.assemble` rebuilds the request's artifact from the
  serial-order cell results on the scheduler thread.  Because cells and
  assembly are exactly the engine's own, a service-returned result is
  bit-identical to the direct engine call.
- :meth:`JobSpec.key` is a content hash over every result-determining
  parameter (the :func:`repro.experiments.cache.content_key`
  discipline, shared with the trace cache), which is what makes
  in-flight dedup sound: equal keys imply bit-identical results.

Priority classes: :attr:`Priority.INTERACTIVE` jobs are dispatched
before :attr:`Priority.BATCH` jobs whenever both have runnable cells.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.experiments.cache import content_key
from repro.experiments.config import QUICK, SweepConfig
from repro.experiments.decision import DecisionStats, decision_stats
from repro.experiments.figures import WanSweep, wan_cell
from repro.experiments.parallel import (
    CellOutcome,
    _profiled,
    assemble_wan_sweep,
    rows_from_flat,
    wan_cell_tasks,
)
from repro.net.planetlab import LEADER_NODE

#: Version tag folded into every job key: bump when a job type's
#: computation changes so "identical request" never spans the change.
JOB_KEY_VERSION = "v1"

#: One schedulable unit of work: a picklable task plus its argument.
CellTask = tuple[Callable[[Any], CellOutcome], Any]


class Priority(enum.Enum):
    """Admission/dispatch class of a job."""

    INTERACTIVE = "interactive"
    BATCH = "batch"


def _config_params(config: SweepConfig) -> dict[str, object]:
    """The result-determining fields of a sweep config, for job keys."""
    return {
        "n": config.n,
        "rounds_per_run": config.rounds_per_run,
        "runs": config.runs,
        "start_points": config.start_points,
        "timeouts": tuple(config.timeouts),
        "seed": config.seed,
    }


@dataclass(frozen=True)
class JobSpec:
    """Base class of one typed service request.

    Subclasses carry their parameters as frozen dataclass fields and
    implement :meth:`key`, :meth:`cells` and :meth:`assemble`.
    """

    def key(self) -> str:
        """Content hash identifying this request's full parameter set."""
        raise NotImplementedError

    def cells(self) -> Sequence[CellTask]:
        """The request as independent, picklable cell tasks."""
        raise NotImplementedError

    def assemble(self, results: Sequence[Any]) -> Any:
        """Rebuild the request's artifact from serial-order cell results."""
        raise NotImplementedError


@dataclass(frozen=True)
class WanSweepJob(JobSpec):
    """A full WAN measurement sweep (Section 5.3); resolves to a
    :class:`~repro.experiments.figures.WanSweep`."""

    config: SweepConfig = QUICK
    leader: int = LEADER_NODE
    priority: Priority = Priority.BATCH

    def key(self) -> str:
        return content_key(
            "job:wan_sweep",
            JOB_KEY_VERSION,
            leader=self.leader,
            **_config_params(self.config),
        )

    def cells(self) -> Sequence[CellTask]:
        return wan_cell_tasks(self.config)

    def assemble(self, results: Sequence[Any]) -> WanSweep:
        return assemble_wan_sweep(
            self.config, self.leader, rows_from_flat(results, self.config)
        )


def _decision_cell(
    config: SweepConfig, t_index: int, r_index: int, model: str
) -> DecisionStats:
    """One decision query, computed exactly as the WAN figures do.

    The cell's matrices are :func:`repro.experiments.figures.wan_cell`'s
    own (same cached trace) and the decision RNG is the figures'
    ``purpose="decision"`` stream — so a served answer is bit-identical
    to the figure pipeline's value for the same cell.
    """
    return decision_stats(
        wan_cell(config, t_index, r_index).matrices,
        model,
        round_length=config.timeouts[t_index],
        start_points=config.start_points,
        leader=LEADER_NODE,
        rng=np.random.default_rng(
            config.run_seed(t_index, r_index, purpose="decision")
        ),
    )


def decision_task(args: tuple[SweepConfig, int, int, str]) -> CellOutcome:
    """Picklable cell task wrapping :func:`_decision_cell`."""
    return _profiled(lambda: _decision_cell(*args))


@dataclass(frozen=True)
class DecisionQuery(JobSpec):
    """One interactive decision-latency query: rounds/time to global
    decision for ``model`` on one (timeout, run) cell; resolves to a
    :class:`~repro.experiments.decision.DecisionStats`."""

    config: SweepConfig = QUICK
    t_index: int = 0
    r_index: int = 0
    model: str = "WLM"
    priority: Priority = Priority.INTERACTIVE

    def key(self) -> str:
        return content_key(
            "job:decision",
            JOB_KEY_VERSION,
            t_index=self.t_index,
            r_index=self.r_index,
            model=self.model,
            **_config_params(self.config),
        )

    def cells(self) -> Sequence[CellTask]:
        return [
            (
                decision_task,
                (self.config, self.t_index, self.r_index, self.model),
            )
        ]

    def assemble(self, results: Sequence[Any]) -> DecisionStats:
        return results[0]
