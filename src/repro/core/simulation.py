"""Algorithm 3: simulating the eventual-LM model inside eventual WLM.

Every two ◊WLM rounds implement one ◊LM round (Appendix B):

- **odd** GIRAF rounds carry the simulated algorithm's own messages;
- **even** GIRAF rounds forward, as an array, everything received in the
  preceding odd round.  Because the ◊WLM leader hears from a majority and
  is heard by everyone, the forwarded arrays give every process the
  previous round's messages from a majority — which is what ◊LM requires.

Lemma 11: GSR_{◊LM} ≤ GSR_{◊WLM} + 2; with the 3-round ◊LM algorithm
plugged in, global decision takes at most 7 ◊WLM rounds (α(l) = 2l + 2).

This is the "simulated ◊WLM" line of the paper's comparison — it shows why
the *direct* Algorithm 2 matters: keeping ◊WLM's weak timeliness
requirements satisfied for 7 rounds is far harder than for 4.
"""

from __future__ import annotations

from typing import Any, Callable, FrozenSet, Mapping, Optional

from repro.giraf.kernel import GirafAlgorithm, RoundOutput


class LmOverWlmSimulation(GirafAlgorithm):
    """Algorithm 3, code for process ``p_i``.

    Wraps any GIRAF algorithm designed for ◊LM (the ``inner`` algorithm)
    and runs it in ◊WLM at half speed.  All messages go to all processes
    (``Π``) — the simulation costs quadratic messages, unlike the direct
    Algorithm 2.
    """

    def __init__(self, pid: int, n: int, inner: GirafAlgorithm) -> None:
        self.pid = pid
        self.n = n
        self.inner = inner
        self._all = frozenset(range(n))
        #: M_i^fixed: the reconstructed ◊LM rounds not yet computed,
        #: ``lm_round -> sender -> message``.
        self._fixed: dict[int, dict[int, Any]] = {}
        #: ``lm_round -> giraf round`` at which the inner compute ran —
        #: the data behind the α-reducibility measurement (Lemma 12:
        #: simulated round GSR_LM + l happens by GSR_WLM + 2l + 2).
        self.lm_round_log: dict[int, int] = {}

    def initialize(self, oracle_output: Any) -> RoundOutput:
        inner_output = self.inner.initialize(oracle_output)
        # Record the inner algorithm's own round-1 message so the
        # reconstruction sees it even if no forwarded array carries it.
        self._fixed[1] = {self.pid: inner_output.payload}
        return RoundOutput(inner_output.payload, self._all)

    def compute(
        self, round_number: int, messages: Mapping[int, Any], oracle_output: Any
    ) -> RoundOutput:
        if round_number % 2 == 1:
            # Odd round: forward everything received this round (line 6).
            return RoundOutput(messages, self._all)

        # Even round k: each received message is an array of the round-(k-1)
        # messages its sender collected; reconstruct round k/2 of ◊LM
        # (lines 8-10).
        lm_round = round_number // 2
        fixed = self._fixed.pop(lm_round, {})
        for array in messages.values():
            if not isinstance(array, Mapping):
                continue
            for original_sender, message in array.items():
                fixed.setdefault(original_sender, message)

        inner_output = self.inner.compute(lm_round, fixed, oracle_output)
        self.lm_round_log[lm_round] = round_number
        self._fixed[lm_round + 1] = {self.pid: inner_output.payload}
        return RoundOutput(inner_output.payload, self._all)

    def decision(self) -> Any:
        return self.inner.decision()

    @property
    def proposal(self) -> Any:
        """Expose the wrapped algorithm's proposal for validity checking."""
        return getattr(self.inner, "proposal", None)
