"""Batched execution of round-sync runs that stay on one round grid.

Over a time-invariant network, with uniform clocks and starts, the
Section 5.1 protocol degenerates into perfect lockstep: every node
starts round ``k`` at the same instant, no future-round message ever
arrives (a message can never outrun its own round's start), so no node
ever jumps, and every round lasts exactly ``timeout / (1 + drift)`` of
global time.  The argument (below) never looks at what the messages say
or whom they go to, so it holds for any GIRAF algorithm — the
measurement probe stream and consensus alike.  The event loop still pays
a heap operation and a Python callback per message to reach a foregone
conclusion.

This module executes such a run without the event heap:

1. the common round grid ``t[0..R]`` is accumulated with the exact float
   additions the scalar timers perform (``t[k] = t[k-1] + D``) — all
   ``R = max_rounds`` of it, since a run always runs to its end, whatever
   ``D`` a slow clock stretches a round to — and the run's permanent
   crashes are placed on it in closed form (which runs stay on one grid
   is :func:`batch_eligibility`'s to say);
2. the probe stream (:class:`~repro.sync.heartbeat.HeartbeatAlgorithm`,
   under a :class:`~repro.oracles.omega.HeartbeatOmega` or no oracle)
   sends to everyone every round and ignores what it hears, so its whole
   run is known up front and is computed **whole**, in a handful of
   NumPy passes (:func:`_run_whole`): one ``(links, rounds)`` latency
   block from the transport's pre-sampled per-link streams
   (:meth:`~repro.sim.transport.Transport.next_stream_block`), the fault
   policy's verdict on the whole block in one call
   (:meth:`~repro.faults.event.PlanLinkFaults.judge`: what is lost, by
   cause, and every link's latency factor), timeliness
   as ``(rounds, n, n)`` arrays under the tie rules below, and the
   oracle reading the finished round log in one call
   (:meth:`~repro.oracles.omega.HeartbeatOmega.replay`) — its answers
   walked one by one only when an observer wants ``on_oracle``; of the
   processes it leaves only the round counters;
3. any other algorithm, under any oracle, is **stepped** one grid round
   at a time (:func:`_run_rounds`) by the lockstep runner's own GIRAF
   round step (:meth:`~repro.giraf.runner.RoundMachine.step`), whose
   graph source here is the wire: each message takes its link's next
   draw (:meth:`~repro.sim.transport.Transport.stream_latency`) in send
   order, the fault policy judges the round's messages in one call
   (:meth:`~repro.faults.event.PlanLinkFaults.sift`), and the tie rules
   below decide which are timely.  It leaves the processes' message
   slots (as mappings: ``compute`` reads a round's messages as a set)
   and outgoing messages as the event loop does;
4. transport and round-sync telemetry (``repro.obs`` counters and the
   latency histogram) goes through the owners' public bulk accountants
   (:meth:`~repro.sim.transport.Transport.count_sends` /
   :meth:`~repro.sim.transport.Transport.count_drops`, the run's own
   registry), equivalent to the scalar path's per-event increments;
5. the round boundaries and the timeliness go into the run's
   :class:`~repro.sync.round_sync.RoundLog` — the record the scalar
   nodes write cell by cell — and :meth:`SyncRun.run` hands that log to
   the one collector, so result construction (including the
   ``on_round_matrix`` observer replay) runs through the identical code
   on every path.

Bit-identity (same matrices, ``sync_error``, ``jumps``,
``late_messages``, decision rounds, node state, transport totals — and,
for instrumented runs, the same metric totals and histograms) is the
contract :func:`run_divergences` states, and :func:`twin_runs` is the one
place a run is executed both ways to be held to it; every guard of it
(``tests/properties/test_prop_sync_batch.py``, the scalar-vs-batched
axis of :mod:`repro.check.differential` — the CLI's only one — and the
speedup benchmark) calls that one function.

Why the tie rules are what they are
-----------------------------------

Events fire in ``(time, priority, seq)`` order and all but crashes use
priority 0, so simultaneity resolves by scheduling sequence.  Round-``k``
begin blocks run at ``t[k-1]`` in pid order (round-1 blocks run inside
the boot events, which are scheduled in pid order at construction; each
later timer is scheduled inside its node's begin block, preserving the
order inductively).  Node ``src``'s deliveries of round ``k`` are
scheduled just before its own round-``k`` timer, so at ``t[k]``:

- a round-``k`` message arriving exactly at ``t[k]`` fires before
  ``dst``'s round-``k`` timer iff ``src < dst`` — timely iff
  ``arrival < t[k]`` or (``arrival == t[k]`` and ``src < dst``);
- any message from an earlier round arriving at ``t[k]`` was scheduled
  before every round-``k`` timer and therefore fires first, while
  ``dst`` is still running — it counts as late;
- at the final instant ``t[R]`` the same rules decide whether ``dst``
  is still running when a delivery fires: late messages are countable
  iff ``arrival < t[R]``, or ``arrival == t[R]`` and the message was
  sent before round ``R``.

A future-round message is impossible: a round-``k`` message arrives at
``arrival >= t[k-1]`` (latencies are non-negative), and whenever it is
delivered the receiver has already begun round ``k`` (a zero-latency
delivery is scheduled *after* the receiver's begin block of the same
instant, by the sequence argument above).  Hence no jumps, ever.
Nothing in the argument reads a payload or a destination set, so it
holds whatever the algorithm sends, to whom, and whether it sends at
all.

Crashes at round granularity keep the lockstep shape
----------------------------------------------------

A permanent crash of ``pid`` is an event at ``c``, the start instant of
plan round ``at_round`` (:meth:`PlanLinkFaults.start_of`), booked at
priority 1: the last event of its instant.  The plan's round starts are
accumulated as a drift-free grid's are, so on a grid from ``t = 0`` with
one timeout a round, ``c`` is ``t[at_round - 1]`` itself: the dying
process ends round ``at_round - 1``, begins round ``at_round`` (the wire
loses its sends) and never ends it, as on the lockstep runner.
Consequences, all closed-form:

- ``pid`` begins round ``k`` iff ``t[k-1] <= c``, and never ends its
  last begun round ``b``, so it ends exactly rounds ``1..b-1``;
- a delivery to ``pid`` is received iff ``arrival <= c``, whether
  timely or late;
- a crash at the final instant ``t[R]`` never fires: the run stops first;
- a crash whose time falls before the (uniform) boot instant is a no-op
  on the node — the crash hook finds it not yet running — though the
  scheduled event still fires and counts as an activation.

The surviving majority (guaranteed by ``FaultPlan`` validation) keeps
the common grid: every non-crashed node runs all ``R`` rounds on the
same boundaries, which is what keeps a run on one grid, whole or
stepped.
"""

from __future__ import annotations

import math
from array import array
from typing import Callable, NamedTuple, Optional

import numpy as np

from repro.faults.lockstep import base_oracle
from repro.giraf.oracle import NullOracle
from repro.giraf.process import notify
from repro.giraf.runner import RoundMachine
from repro.oracles.omega import HeartbeatOmega
from repro.sim.transport import Transport
from repro.sync.heartbeat import HeartbeatAlgorithm
from repro.sync.round_sync import SyncRun, SyncRunResult


#: Fields of :class:`SyncRunResult` whose exact equality the batched path
#: guarantees, in reporting order.
RESULT_FIELDS = (
    "matrices",
    "sync_error",
    "round_durations",
    "jumps",
    "late_messages",
    "decisions",
    "decision_rounds",
    "proposals",
    "correct",
)


def result_divergences(a: SyncRunResult, b: SyncRunResult) -> list[str]:
    """Names of the :data:`RESULT_FIELDS` on which ``a`` and ``b`` differ.

    The comparison is *exact* (bit-level for floats; ``nan`` equals
    ``nan``, since a censored round must stay censored on both paths) —
    this is the equality the scalar-vs-batched conformance axis and the
    property suite assert.  An empty list means the results agree.
    """
    diffs: list[str] = []
    if a.n != b.n:
        diffs.append("n")
    if len(a.matrices) != len(b.matrices) or any(
        not np.array_equal(ma, mb) for ma, mb in zip(a.matrices, b.matrices)
    ):
        diffs.append("matrices")
    if not np.array_equal(
        np.asarray(a.sync_error), np.asarray(b.sync_error), equal_nan=True
    ):
        diffs.append("sync_error")
    for name in ("round_durations", "jumps", "late_messages",
                 "decisions", "decision_rounds", "proposals", "correct"):
        if getattr(a, name) != getattr(b, name):
            diffs.append(name)
    return diffs


#: What :func:`run_divergences` compares beyond the result itself, in
#: reporting order.  The metric facets only ever diverge on runs built
#: with a live registry (a disabled one snapshots empty on both sides).
RUN_FACETS = ("node state", "transport counters")
METRIC_FACETS = ("metric totals", "histograms")


def _comparable_counters(snapshot: dict) -> dict:
    """Counter totals minus the executed-mode bookkeeping, which differs
    between a forced-scalar and a batched run by construction."""
    return {
        key: value
        for key, value in snapshot["counters"].items()
        if not key.startswith("sync.executed_mode")
        and not key.startswith("sync.batch_fallback")
    }


def run_divergences(
    run_a: SyncRun,
    result_a: SyncRunResult,
    run_b: SyncRun,
    result_b: SyncRunResult,
) -> list[str]:
    """The scalar ≡ batch identity contract, stated once.

    Given two finished twin runs and their results, the facets on which
    they differ: the :data:`RESULT_FIELDS` (:func:`result_divergences`),
    then the :data:`RUN_FACETS` — ``"node state"`` (the two runs'
    :class:`~repro.sync.round_sync.RoundLog`s, over the rounds either
    reached, plus every node's ``crashed_permanently``) and
    ``"transport counters"`` (messages sent and lost) — then the
    :data:`METRIC_FACETS` read off each run's own registry: ``"metric
    totals"`` (the comparable counters) and ``"histograms"``.  Every
    comparison is exact; an empty list means the two executions are
    indistinguishable.
    """
    diffs = result_divergences(result_a, result_b)
    log_a, log_b = run_a.log, run_b.log
    reached = slice(max(log_a.rounds, log_b.rounds) + 1)
    if not all(
        np.array_equal(
            getattr(log_a, cells)[reached],
            getattr(log_b, cells)[reached],
            equal_nan=True,
        )
        for cells in ("starts", "ends", "timely")
    ) or any(
        a.crashed_permanently != b.crashed_permanently
        for a, b in zip(run_a.nodes, run_b.nodes)
    ):
        diffs.append("node state")
    if (
        run_a.transport.messages_sent != run_b.transport.messages_sent
        or run_a.transport.messages_lost != run_b.transport.messages_lost
    ):
        diffs.append("transport counters")
    metrics_a, metrics_b = run_a.metrics.snapshot(), run_b.metrics.snapshot()
    if _comparable_counters(metrics_a) != _comparable_counters(metrics_b):
        diffs.append("metric totals")
    if metrics_a["histograms"] != metrics_b["histograms"]:
        diffs.append("histograms")
    return diffs


class TwinRuns(NamedTuple):
    """What :func:`twin_runs` executed and found."""

    auto_run: SyncRun
    auto: SyncRunResult
    scalar_run: SyncRun
    scalar: SyncRunResult
    #: :func:`run_divergences` of the pair; empty = indistinguishable.
    diverged: list[str]


def twin_runs(build: Callable[[], SyncRun]) -> TwinRuns:
    """Hold one run to the identity contract: ``build`` it twice, execute
    the first under ``auto`` (batched where eligible) and the second on
    the forced scalar event loop, and diff the two.  ``build`` must give
    each call a run of its own — network, registry, observers — built
    from the same seeds.  A run the ``auto`` leg already put on the
    scalar loop is its own twin: it is built and run once, returned as
    both legs, with nothing diverged."""
    auto_run = build()
    auto = auto_run.run()
    if auto_run.executed_mode == "scalar":
        return TwinRuns(auto_run, auto, auto_run, auto, [])
    scalar_run = build()
    scalar = scalar_run.run(mode="scalar")
    return TwinRuns(
        auto_run, auto, scalar_run, scalar,
        run_divergences(scalar_run, scalar, auto_run, auto),
    )


def batch_eligibility(run: SyncRun) -> Optional[str]:
    """Why ``run`` cannot take the batched path, or ``None`` if it can.

    The batched path reproduces the scalar event loop bit-for-bit for
    lockstep-uniform runs of any GIRAF algorithm under any oracle —
    including runs with a round-granular
    :class:`~repro.faults.plan.FaultPlan` (permanent crashes, loss
    bursts, partitions, slow nodes, leader churn), live telemetry and
    observers.  What still forces the scalar path is anything that can
    move a node off the common round grid (crash *recovery*, clock
    steps, drift, staggered starts) or randomness that cannot be
    pre-sampled (dynamic link models) — five named reasons — or a run
    that is no longer, or never was, a stock one (``"not a stock run"``).
    The returned string is the fallback taxonomy, surfaced as
    :attr:`SyncRun.fallback_reason` and counted per run in the
    ``sync.batch_fallback`` counter family.
    """
    transport, policy, plan = run.transport, run.link_faults, run.fault_plan
    inner = base_oracle(run.nodes[0].oracle)
    # The run is not as its constructor left it (a node, the transport,
    # the simulator or the fault policy already used; a node given its
    # own timeout, ``max_rounds`` or oracle), or it carries a foreign
    # transport — nothing a constructor argument of a stock run produces.
    if (
        any(
            node.process.round != 0 or node.running or node.crashed
            for node in run.nodes
        )
        or type(transport) is not Transport
        or transport.streams_started
        or transport.messages_sent
        or transport.faults is not policy
        or (policy is not None and policy.consumed)
        or len({id(node.oracle) for node in run.nodes}) != 1
        or (type(inner) is HeartbeatOmega and inner.n != run.n)
        or any(node.max_rounds != run.max_rounds for node in run.nodes)
        or len({node.timeout for node in run.nodes}) != 1
        or run.simulator.events_processed
        or run.simulator.pending_events != run.n
    ):
        return "not a stock run"
    if not transport.stream_sampling_active:
        return "link model is not batch-capable and time-invariant"
    if plan is not None:
        if plan.clock_steps:
            return "fault plan schedules clock steps"
        if any(c.recover_round is not None for c in plan.crashes):
            return "fault plan schedules crash recovery"
    if len({node.clock.drift for node in run.nodes}) != 1:
        return "heterogeneous clock drift"
    if len({node.start_time for node in run.nodes}) != 1:
        return "staggered start times"
    return None


def _round_grid(run: SyncRun) -> list[float]:
    """The common round boundaries ``t[0..R]`` as exact scalar floats.

    ``t[0]`` is the (uniform) start time and every round lasts one full
    timeout, through :meth:`SyncedNode.round_length` — the expression
    the scalar timers are scheduled with.  The grid is accumulated
    sequentially so every boundary is the same IEEE double those timers
    produce.
    """
    node = run.nodes[0]
    step = node.round_length(node.timeout)
    times = [node.start_time]
    for _ in range(run.max_rounds):
        times.append(times[-1] + step)
    return times


class _Grid(NamedTuple):
    """An eligible run's common round grid and who runs on it: the closed
    form of its permanent crashes (module docstring), which both batched
    paths share."""

    #: The round boundaries ``t[0..R]`` as exact scalar floats.
    times: list[float]
    #: ``t[0..R-1]`` and ``t[1..R]``: each round's start and end.
    starts: np.ndarray
    ends: np.ndarray
    #: Per pid, the last round it begins / ends.
    begun: np.ndarray
    ended: np.ndarray
    #: ``[k, pid]``: ``pid`` begins round ``k``.
    began: np.ndarray
    #: Per pid, its crash instant, up to which alone it receives
    #: (``+inf`` for a survivor).
    cut: np.ndarray
    #: Per pid, whether it crashes while running.
    effective: np.ndarray
    #: The highest pid that survives: the run stops at its last timer.
    last_alive: int
    #: Crash events that fire before the run stops.
    crash_events: int


def _grid(run: SyncRun) -> _Grid:
    """Who begins, ends and hears which rounds of the run's grid:
    permanent crashes only (eligibility rejects recoveries and clock
    steps)."""
    n, rounds, plan = run.n, run.max_rounds, run.fault_plan
    times = _round_grid(run)
    starts = np.asarray(times[:-1])
    stop = times[-1]
    crash_time = np.full(n, np.inf)
    crash_events = 0
    if plan is not None:
        for crash in plan.crashes:
            c = run.link_faults.start_of(crash.at_round)
            crash_events += c < stop
            # A crash scheduled before the (uniform) boot instant finds
            # the node not yet booted and does nothing: the node dies at
            # its earliest crash from boot on.
            if starts[0] <= c < crash_time[crash.pid]:
                crash_time[crash.pid] = c
    # Round k begins iff t[k-1] <= c.
    effective = crash_time < stop
    begun = np.where(effective, (starts[:, None] <= crash_time).sum(axis=0), rounds)
    return _Grid(
        times=times,
        starts=starts,
        ends=np.asarray(times[1:]),
        begun=begun,
        ended=np.where(effective, begun - 1, rounds),
        began=np.arange(1, rounds + 1)[:, None] <= begun,
        # A crashed node receives up to its crash instant, inclusive.
        cut=np.where(effective, crash_time, np.inf),
        effective=effective,
        last_alive=int(np.arange(n)[~effective].max()),
        crash_events=crash_events,
    )


def run_batched(run: SyncRun) -> None:
    """Execute a ``run`` :func:`batch_eligibility` admits on the batched
    path, over its common round grid: the probe stream as whole arrays,
    any other algorithm stepped one grid round at a time (module
    docstring).

    Leaves behind what the scalar event loop would have: the run's
    :class:`~repro.sync.round_sync.RoundLog`, the nodes' late-message
    counters, crash flags and decision rounds, stream cursors and
    fault-policy state, ``messages_sent``/``lost``, counter and
    histogram totals, the oracle's state, the simulator clock and an
    empty event queue (the scalar loop drains what never fired once
    every node has stopped, so a finished run of either engine holds no
    event that refers back to it and is freed by reference count), and
    what item 3 of the module docstring says of the processes.  The
    caller (:meth:`SyncRun.run`) then
    collects the result from the log, by the very same code as after a
    scalar run.

    Not mirrored (documented divergence): the simulator's
    ``events_processed`` (no event fires here), and the fault policy's
    transient ``last_drop_cause`` and per-instant memo; none of them
    feed :class:`~repro.sync.round_sync.SyncRunResult` or the metric
    totals.
    """
    grid = _grid(run)
    run.log.reach(run.max_rounds)
    inner = base_oracle(run.nodes[0].oracle)
    if type(inner) in (HeartbeatOmega, NullOracle) and all(
        type(node.process.algorithm) is HeartbeatAlgorithm for node in run.nodes
    ):
        _run_whole(run, grid)
    else:
        _run_rounds(run, grid)
    # Leave the simulator where the scalar loop leaves it: at the last
    # surviving round-end timer, the never-fired events discarded.
    run.simulator.drain()
    run.simulator.fast_forward(grid.times[-1])


def _close(
    run: SyncRun,
    grid: _Grid,
    late_counts: np.ndarray,
    drops: dict[str, int],
    delivered: int,
    latencies: np.ndarray,
) -> None:
    """What both paths book once the rounds are decided: the log's round
    boundaries, the nodes' counters and crash flags, the sync, crash and
    transport telemetry.  Every message sent is either in ``drops``, by
    cause, or in ``latencies``, which holds the latency of each one not
    lost in send order: round-major, then sender pid, then destination."""
    n, rounds = run.n, run.max_rounds
    log, rows = run.log, slice(1, rounds + 1)
    k_index = np.arange(1, rounds + 1)[:, None]
    log.starts[rows] = np.where(grid.began, grid.starts[:, None], np.nan)
    log.ends[rows] = np.where(k_index <= grid.ended, grid.ends[:, None], np.nan)
    log.stopped = n  # every node crashed for good or ran past round R
    for pid, node in enumerate(run.nodes):
        node.late_messages = int(late_counts[pid])
        node.crashed = node.crashed_permanently = bool(grid.effective[pid])
    run.metrics.counter("sync.rounds_started").inc(int(grid.begun.sum()))
    run.metrics.counter("sync.timeout_fires").inc(int(grid.ended.sum()))
    run.metrics.counter("sync.late_messages").inc(int(late_counts.sum()))
    if grid.crash_events:
        run.metrics.counter("faults.activations", kind="crash").inc(
            grid.crash_events
        )
    for cause, count in drops.items():
        run.transport.count_drops(cause, count)
    run.transport.count_sends(
        sent=sum(drops.values()) + len(latencies),
        delivered=delivered,
        latencies=latencies,
    )


def _run_whole(run: SyncRun, grid: _Grid) -> None:
    """The probe stream in a handful of NumPy passes: its sends never
    change and its ``compute`` ignores its messages, so every round's
    traffic is known before any round runs."""
    n = run.n
    rounds = run.max_rounds
    starts, ends, stop = grid.starts, grid.ends, grid.times[-1]
    transport, policy = run.transport, run.link_faults
    begun, ended, began = grid.begun, grid.ended, grid.began

    # ------------------------------------------------------------------
    # Draw every link's latencies — ``[k, dst, src]``, one per message
    # ``src`` sends (the stream path's contract: dropped or not) — and
    # let the fault policy judge the whole block.  A link draws exactly as
    # many values as its source begins rounds: a crashed source's links
    # stop mid-stream, and drawing further would desync them from the
    # scalar path.  Lost messages are ``+inf``, as are the diagonal and
    # the never-sent rounds, which ``sent`` masks out.
    # ------------------------------------------------------------------
    latencies = np.full((rounds, n, n), np.inf)
    dst, src = np.nonzero(~np.eye(n, dtype=bool))
    block = transport.next_stream_block(
        list(zip(src.tolist(), dst.tolist())), begun[src].tolist()
    )
    latencies[: block.shape[1], dst, src] = block.T
    k_index = np.arange(1, rounds + 1)
    sent = began[:, None, :] & ~np.eye(n, dtype=bool)

    drops: dict[str, int] = {}
    values, fault_drop = latencies, np.zeros_like(sent)
    if policy is not None:
        # Grid round k is in the plan round covering its start instant,
        # where the policy places each of its messages.
        fault_drop, factor, drops = policy.judge(sent, policy.rounds_of(starts))
        values = np.where(factor != 1.0, latencies * factor, latencies)

    deliverable = sent & ~fault_drop & np.isfinite(values)
    drops["link"] = int((sent & ~fault_drop & np.isinf(values)).sum())
    arrival = starts[:, None, None] + values

    # ------------------------------------------------------------------
    # The event queue's tie rules, in closed form.
    # ------------------------------------------------------------------
    # [dst, src] orientation: rows are receivers, columns senders.
    src_before_dst = np.arange(n)[None, :] < np.arange(n)[:, None]
    end_col = ends[:, None, None]
    received = deliverable & (arrival <= grid.cut[None, :, None])
    timely = received & (
        (arrival < end_col) | ((arrival == end_col) & src_before_dst)
    )
    countable = (arrival < stop) | (
        (arrival == stop) & (k_index[:, None, None] < rounds)
    )
    late = received & ~timely & countable

    # The scalar loop stops at the last surviving node's final timer;
    # deliveries landing exactly then were scheduled after it (and never
    # fire) iff they are round-R sends of a higher-pid (crashed) node.
    fired = deliverable & (
        countable | ((arrival == stop) & (np.arange(n) <= grid.last_alive))
    )

    # ------------------------------------------------------------------
    # The run's round log, whole, what the nodes hold beyond it, and the
    # telemetry, bulk-equivalent to per-send work.  Histogram
    # observations happen at send time, in send order: round-major, then
    # sender pid, then ascending destination.
    # ------------------------------------------------------------------
    log, rows = run.log, slice(1, rounds + 1)
    log.timely[rows] = (timely | np.eye(n, dtype=bool)) & began[:, :, None]
    effective = grid.effective
    for pid, node in enumerate(run.nodes):
        # A crashed node is frozen in the last round it began; a
        # survivor stopped on entering round R + 1.
        node.process.round = int(begun[pid]) if effective[pid] else rounds + 1
        node.process.algorithm.rounds_computed = int(ended[pid])
    by_send = (0, 2, 1)
    _close(
        run, grid, late.sum(axis=(0, 2)), drops, int(fired.sum()),
        values.transpose(by_send)[deliverable.transpose(by_send)],
    )

    # ------------------------------------------------------------------
    # Oracle and observer replay.  The detector reads the round log
    # whole: one call observes every round's enders' rows and answers
    # the boot queries and each round's enders' queries, leaving the
    # oracle where the interleaved scalar sequence does.  Only observers
    # need the answers one by one — in scalar order: boot in pid order,
    # then each round's enders in pid order.
    # ------------------------------------------------------------------
    leaders = run.nodes[0].oracle.replay(log.timely[rows], ended)
    if run.observers:
        leaders = leaders.tolist()
        queried = np.arange(rounds + 1)[:, None] <= ended
        for k, pid in np.argwhere(queried).tolist():
            leader = leaders[k][pid]
            notify(
                run.observers, "on_oracle", pid, k,
                None if leader < 0 else leader,
            )


def _run_rounds(run: SyncRun, grid: _Grid) -> None:
    """Any GIRAF algorithm, one grid round at a time, with no event heap:
    the round step, with the wire (``wire``) for its graph source, which
    also books which messages are late, lost or never fire."""
    n, rounds = run.n, run.max_rounds
    read, policy = run.transport.stream_latency, run.link_faults
    times, timely = grid.times, run.log.timely
    stop = times[-1]
    begun, ended = grid.begun.tolist(), grid.ended.tolist()
    cut, last_alive = grid.cut.tolist(), grid.last_alive
    pids = range(n)
    drops = {"link": 0}
    late = [0] * n
    observed = array("d")  # 8 bytes a latency: a long run keeps them all
    delivered = 0

    def wire(k: int, sends: list) -> np.ndarray:
        nonlocal delivered
        start, end = times[k - 1], times[k]
        messages = []
        for src, targets, payload in sends:
            for index, dst in enumerate(targets):
                messages.append((src, dst, read(src, targets, index), payload))
        if policy is not None:
            messages = policy.sift(start, messages, drops)
        heard = timely[k]
        for src, dst, latency, _ in messages:
            if latency == math.inf:
                drops["link"] += 1
                continue
            observed.append(latency)
            arrival = start + latency
            if arrival < stop or (
                arrival == stop and (k < rounds or src <= last_alive)
            ):
                delivered += 1
            if arrival > cut[dst]:
                continue
            if arrival < end or (arrival == end and src < dst):
                heard[dst, src] = True
            elif arrival < stop or (arrival == stop and k < rounds):
                late[dst] += 1
        run.simulator.fast_forward(end)
        return heard

    idx = np.arange(n)
    timely[1 : rounds + 1][:, idx, idx] = grid.began
    nodes = run.nodes
    machine = RoundMachine(
        [node.process for node in nodes], nodes[0].oracle, run.observers
    )
    run.simulator.fast_forward(times[0])
    for k in range(rounds + 1):
        machine.step(
            k,
            [pid for pid in pids if k <= begun[pid]],
            wire,
            [pid for pid in pids if k <= ended[pid]],
        )
    for pid, k in machine.decision_rounds.items():
        nodes[pid].decision_round = k
    _close(run, grid, np.array(late), drops, delivered, np.frombuffer(observed))
