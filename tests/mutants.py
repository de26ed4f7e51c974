"""The mutant table: one hand-written bug per row, for the test census.

A mutant is one edit to one function of ``src/repro``: its source text
``old`` becomes ``new``.  It is installed by swapping the function's code
object, so every reference to the function runs it (a module global, an
import under another name, a bound method, a registry entry).  Every
package under ``src/repro`` has a row.  To add one, append it to
:data:`MUTANTS`, then regenerate ``benchmarks/results/mutants.txt`` with
``PYTHONPATH=src python -m tests.census``.  A row nothing kills is a
missing test: write it.  A row no input tells from the real code goes to
:data:`EQUIVALENT` with its reason; when its edit deletes a statement,
the statement is dead and leaves the source too.
"""

from __future__ import annotations

import __future__
import importlib
import inspect
import textwrap
from dataclasses import dataclass
from types import CodeType, FunctionType

import pytest


@dataclass(frozen=True)
class Mutant:
    """``old`` → ``new`` in the source of ``target``
    (``"module:Qualified.name"``)."""

    name: str
    layer: str
    breaks: str
    target: str
    old: str
    new: str

    def function(self) -> FunctionType:
        module, _, path = self.target.partition(":")
        *owners, attr = path.split(".")
        owner = importlib.import_module(module)
        for part in owners:
            owner = getattr(owner, part)
        raw = vars(owner)[attr]  # a property or staticmethod, unwrapped below
        return getattr(raw, "fget", None) or getattr(raw, "__func__", raw)

    def code(self) -> CodeType:
        """The mutated code object, compiled where the original lives."""
        func = self.function()
        source = textwrap.dedent(inspect.getsource(func))
        if source.count(self.old) != 1:
            raise ValueError(f"{self.name}: the edit must match once in {self.target}")
        source = source.replace(self.old, self.new)
        # A method's free variables (``__class__`` for ``super()``) are
        # made locals of a wrapper, so the compiled body closes over them
        # exactly as the original does.
        original = func.__code__
        cells = "".join(f"    {name} = None\n" for name in original.co_freevars)
        wrapped = "def _census_outer():\n" + cells + textwrap.indent(source, "    ")
        line = original.co_firstlineno - 2 - len(original.co_freevars)
        module = compile(
            "\n" * max(0, line) + wrapped, original.co_filename, "exec",
            flags=__future__.annotations.compiler_flag, dont_inherit=True,
        )
        outer = next(c for c in module.co_consts if isinstance(c, CodeType))
        code = next(
            c for c in outer.co_consts
            if isinstance(c, CodeType) and c.co_name == original.co_name
        )
        if code.co_freevars != original.co_freevars:
            raise ValueError(f"{self.name}: the edit changed the closure")
        return code

    def install(self, monkeypatch: pytest.MonkeyPatch) -> None:
        monkeypatch.setattr(self.function(), "__code__", self.code())


@dataclass(frozen=True)
class Equivalent:
    """A mutant no input tells apart from the real code, with the reason."""

    name: str
    layer: str
    breaks: str
    reason: str


MUTANTS = tuple(Mutant(*row) for row in (
    # name, layer, what it breaks, target, old text, new text
    ("pr-majority-off-by-one", "analysis",
     "Pr(M | L) sums from one further one too many (eq. 4)",
     "repro.analysis.equations:pr_majority_given_leader",
     "range(n // 2, n)", "range(n // 2 + 1, n)"),
    ("merge-never-trims", "adaptive",
     "TimelinessExtractor._merge never trims its sliding window",
     "repro.adaptive.extractor:TimelinessExtractor._merge",
     "if len(self._rounds) > self.window:", "if False:"),
    ("replay-keeps-link-faults", "check",
     "the lockstep replay of an event run's log installs the whole plan: a slow node, whose delays the log holds, is refused",
     "repro.check.differential:lockstep_replay",
     "plan = replace(plan, loss_bursts=(), partitions=(), slow_nodes=())", "plan = replace(plan)"),
    ("integrity-never-fires", "check",
     "the Integrity invariant never flags a changed decision",
     "repro.check.invariants:Integrity.on_decision",
     "elif self._decided[pid] != value and pid not in self._flagged:", "elif False:"),
    ("commit-without-majapproved", "consensus",
     "Lemma 3: a process commits on a leader that is not majApproved",
     "repro.consensus.base:LeaderConsensus._commit_guard",
     "return leader_msg.maj_approved", "return True"),
    ("paxos-adopts-last-promise", "consensus",
     "a Paxos leader adopts the last promise's accepted value, not the highest ballot's",
     "repro.consensus.paxos:PaxosConsensus._proposer_step",
     "best = max(accepted, key=lambda m: m.vrnd)", "best = accepted[-1]"),
    ("decide3-without-majapproved", "core",
     "decide-3 no longer asks the decider to be majApproved",
     "repro.core.wlm:WlmConsensus._decide3_guard",
     "return own.maj_approved", "return True"),
    ("cache-crc-skipped", "experiments",
     "cache._read returns a record without comparing its CRC",
     "repro.experiments.cache:_read",
     "if got != raw.size or zlib.crc32(raw, record.meta_crc) != record.crc:", "if got != raw.size:"),
    ("diagonal-not-forced", "experiments",
     "timely_matrices leaves the diagonal to the latency trace",
     "repro.experiments.measurement:timely_matrices",
     "matrices[..., diag, diag] = True", "pass"),
    ("decision-window-off-by-one", "experiments",
     "the decision-window scan counts one round too many to decide",
     "repro.experiments.decision:window_decisions",
     "begins + window - starts", "begins + window + 1 - starts"),
    ("starts-share-timeout-zero", "experiments",
     "a sweep draws every timeout's decision start points from timeout 0's seeds",
     "repro.experiments.figures:WanSweep.start_points",
     'partial(config.run_seed, t_index, purpose="decision")', 'partial(config.run_seed, 0, purpose="decision")'),
    ("sweep-table-ignores-leader", "experiments",
     "a sweep keys its satisfaction tables by model only: Figure 1(c)'s average-leader curves read the good leader's",
     "repro.experiments.figures:WanSweep._satisfied_key",
     "leader if get_model(model).needs_leader else None", "None"),
    ("quiet-during-burst", "faults",
     "PlanLinkFaults.quiet says True while a loss burst is live",
     "repro.faults.event:PlanLinkFaults._view",
     "state.down.any() or state.cross.any() or state.bursts", "state.down.any() or state.cross.any()"),
    ("partition-labelled-crash", "faults",
     "a partition drop is counted under the cause 'crash'",
     "repro.faults.event:PlanLinkFaults._sever",
     'return "partition"', 'return "crash"'),
    ("partition-fires-every-episode", "faults",
     "a message a partition cuts fires every partition of the plan, live or not",
     "repro.faults.event:PlanLinkFaults._sever",
     "for index in self._cutting:", "for index in range(len(self.plan.partitions)):"),
    ("judge-cut-outlives-window", "faults",
     "judge loses a cut link's messages in every round of the block, not only its fault's epoch",
     "repro.faults.event:PlanLinkFaults.judge",
     "lost = sent & cut[epoch]", "lost = sent & cut.any(axis=0)"),
    ("burst-hits-transposed", "faults",
     "the wire reads the round's burst hits as [src, dst]",
     "repro.faults.event:PlanLinkFaults.judge",
     "fired = kept & hit", "fired = kept & hit.T"),
    ("mask-drops-final-sends", "faults",
     "FaultPlan.mask swallows a dying process's final_sends",
     "repro.faults.plan:FaultPlan.mask",
     "masked[dsts, pid] = column", "pass"),
    ("destination-range-unchecked", "giraf",
     "a process transmits to a destination outside range(n)",
     "repro.giraf.process:GirafProcess.transmit_targets",
     "if targets and not (0 <= targets[0] and targets[-1] < n):", "if False:"),
    ("past-round-message-kept", "giraf",
     "GirafProcess.receive stores a message for a round already over",
     "repro.giraf.process:GirafProcess.receive",
     "if round_number < self.round:", "if False:"),
    ("round-ends-before-receive", "giraf",
     "the round step hands over its timely messages as if the round were over: each is dropped",
     "repro.giraf.runner:RoundMachine.step",
     "processes[dst].receive(k, src, payload)", "processes[dst].receive(k - 1, src, payload)"),
    ("wlm-majority-minus-one", "models",
     "batch_satisfies_wlm asks the leader to hear one sender fewer than a majority",
     "repro.models.properties:batch_satisfies_wlm",
     ">= maj", ">= maj - 1"),
    ("afm-out-count-by-rows", "models",
     "batch_satisfies_afm counts a source's timely senders, not its timely recipients",
     "repro.models.properties:batch_satisfies_afm",
     "out_counts = _count_timely(matrices, axis=1)", "out_counts = _count_timely(matrices, axis=2)"),
    ("count-wraps-at-256", "models",
     "the batched timely count keeps its uint8 accumulator from 256 senders on",
     "repro.models.properties:_count_timely",
     "dtype = None if flags.shape[axis] < 256 else np.intp", "dtype = None"),
    ("select-leader-argmax", "net",
     "select_leader picks the worst-connected node (argmax)",
     "repro.net.ping:select_leader",
     "return int(np.argmin(scores))", "return int(np.argmax(scores))"),
    ("slow-down-skips-scale", "net",
     "the block sampler's slow windows leave a scale-mode node's incoming lanes unscaled",
     "repro.net.hetero:HeterogeneousNetwork._slow_down",
     "latencies[burst] *= slow.factor", "pass"),
    ("observe-many-drops-last", "obs",
     "Histogram.observe_many drops its last value",
     "repro.obs.registry:Histogram.observe_many",
     "values = np.asarray(values, dtype=float)", "values = np.asarray(values, dtype=float)[:-1]"),
    ("omega-window-off-by-one", "oracles",
     "HeartbeatOmega._in_window drops the window's oldest round",
     "repro.oracles.omega:HeartbeatOmega._in_window",
     "last_heard >= round_number", "last_heard > round_number"),
    ("batch-before-interactive", "service",
     "the sweep service scans the batch queue before the interactive one",
     "repro.service.scheduler:SweepService._scan_order",
     "(Priority.INTERACTIVE, Priority.BATCH)", "(Priority.BATCH, Priority.INTERACTIVE)"),
    ("heap-tie-flipped", "sim",
     "deliveries go on the heap at priority 1: after a same-instant timer",
     "repro.sim.transport:Transport.broadcast",
     "(now + latency, 0, next(seqs)", "(now + latency, 1, next(seqs)"),
    ("dropped-message-no-draw", "sim",
     "a message the fault policy drops takes no draw from its link's stream",
     "repro.sim.transport:Transport.broadcast",
     "if read is not None:\n", "if read is not None and not dropped:\n"),
    ("forward-newest", "smr",
     "an idle replica forwards the newest pending command, not the oldest",
     "repro.smr.replica:ReplicaGroup._proposal_for",
     "return min(candidates)", "return max(candidates)"),
    ("src-before-dst-flipped", "sync",
     "the whole-array batched path breaks same-instant arrival ties the wrong way",
     "repro.sync.batch:_run_whole",
     "np.arange(n)[None, :] < np.arange(n)[:, None]", "np.arange(n)[None, :] > np.arange(n)[:, None]"),
    ("stepped-tie-flipped", "sync",
     "the stepped batched path breaks same-instant arrival ties the wrong way",
     "repro.sync.batch:_run_rounds",
     "(arrival == end and src < dst)", "(arrival == end and src > dst)"),
    ("crash-before-timer", "sync",
     "a crash fires before its instant's round timer: the dying node never ends the round before its crash round",
     "repro.sync.round_sync:SyncRun._schedule_node_faults",
     "partial(node.crash, permanent), 1)", "partial(node.crash, permanent), 0)"),
    ("jump-not-shortened", "sync",
     "a jump's joined round is not shortened by L_i[src]",
     "repro.sync.round_sync:SyncedNode._on_receive",
     "self._begin_round(self.timeout - self.latency_estimates[src])", "self._begin_round(self.timeout)"),
    ("twin-runs-always-skip", "sync",
     "twin_runs returns the auto leg as its own scalar twin even when it ran batched",
     "repro.sync.batch:twin_runs",
     'if auto_run.executed_mode == "scalar":', "if True:"),
    ("collect-credits-unended-round", "sync",
     "SyncRun._collect credits a round a node began but never ended (it crashed in it for good)",
     "repro.sync.round_sync:SyncRun._collect",
     "log.timely[1 : last + 1] & ended[1 : last + 1, :, None]", "log.timely[1 : last + 1].copy()"),
))

EQUIVALENT = (
    Equivalent(
        "runner-dead-destination-unchecked", "giraf",
        "LockstepRunner.run hands a message to a dead destination",
        "FaultPlan.mask(k) masks the whole row of every process that is"
        " down, and keeps a dying process's final_sends only toward live"
        " destinations, so timely[dst, src] is False for every dead dst:"
        " the check before receive() never filtered a message, and went",
    ),
)


def by_name(name: str) -> Mutant:
    for mutant in MUTANTS:
        if mutant.name == name:
            return mutant
    raise KeyError(f"no mutant named {name!r}")
