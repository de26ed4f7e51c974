"""End-to-end: consensus algorithms over the round-synchronization
protocol on the synthetic WAN — the full Section 5 stack, with no
lockstep idealization anywhere."""

import numpy as np
import pytest

from repro.consensus import AfmConsensus, LmConsensus, PaxosConsensus
from repro.core import WlmConsensus
from repro.giraf.oracle import FixedLeaderOracle, NullOracle
from repro.net import measure_latency_table, planetlab_profile, select_leader
from repro.sim import Clock, Transport
from repro.sync import SyncRun


def run_consensus_over_wan(algorithm_factory, oracle, timeout=0.25,
                           max_rounds=60, seed=21, n=8):
    profile = planetlab_profile(seed=seed)
    table = measure_latency_table(planetlab_profile(seed=seed + 1), pings=15)
    run = SyncRun(
        n,
        algorithm_factory,
        oracle,
        lambda sim: Transport(sim, profile),
        timeout=timeout,
        latency_table=table,
        clocks=[Clock(offset=0.01 * i, drift=1e-5 * (i - 3)) for i in range(n)],
        start_times=[0.05 * i for i in range(n)],
        max_rounds=max_rounds,
    )
    return run.run()


class TestConsensusOverWan:
    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_wlm_algorithm_decides_and_agrees(self, seed):
        n = 8
        leader = select_leader(
            measure_latency_table(planetlab_profile(seed=seed + 9), pings=15)
        )
        result = run_consensus_over_wan(
            lambda pid: WlmConsensus(pid, n, (pid + 1) * 10),
            FixedLeaderOracle(leader),
            seed=seed,
        )
        values = set(result.decisions.values())
        assert len(result.decisions) == n  # everyone decided
        assert len(values) == 1
        assert next(iter(values)) in {(pid + 1) * 10 for pid in range(n)}

    @pytest.mark.parametrize(
        "factory,oracle",
        [
            (lambda pid: LmConsensus(pid, 8, pid), FixedLeaderOracle(6)),
            (lambda pid: AfmConsensus(pid, 8, pid), NullOracle()),
            (lambda pid: PaxosConsensus(pid, 8, pid), FixedLeaderOracle(6)),
        ],
        ids=["LM", "AFM", "Paxos"],
    )
    def test_baselines_decide_and_agree(self, factory, oracle):
        result = run_consensus_over_wan(factory, oracle, max_rounds=80)
        assert len(result.decisions) == 8
        assert len(set(result.decisions.values())) == 1

    def test_short_timeout_still_safe(self):
        """At 120 ms many messages are late; the run may need more rounds
        but decisions must still agree."""
        result = run_consensus_over_wan(
            lambda pid: WlmConsensus(pid, 8, pid),
            FixedLeaderOracle(6),
            timeout=0.12,
            max_rounds=150,
        )
        assert len(set(result.decisions.values())) <= 1


class TestDestinationRange:
    @pytest.mark.parametrize("mode", ["auto", "scalar"])
    @pytest.mark.parametrize("leader", [-1, 8])
    def test_destination_outside_the_system_rejected(self, leader, mode):
        """A message to "leader -1" used to be lost as unregistered while
        its draw came off a real link's stream; one to "leader 8" died in
        the stream table.  Both engines refuse it at the transmit step."""
        n = 8
        table = measure_latency_table(
            planetlab_profile(seed=4, slow_run_prob=0.0), pings=3
        )
        run = SyncRun(
            n,
            lambda pid: WlmConsensus(pid, n, pid),
            FixedLeaderOracle(leader),
            lambda sim: Transport(
                sim, planetlab_profile(seed=3, slow_run_prob=0.0)
            ),
            timeout=0.21,
            latency_table=table,
            max_rounds=20,
        )
        message = f"process 0 addressed its round-1 message to {leader}"
        with pytest.raises(ValueError, match=rf"{message}, outside range\(8\)"):
            run.run(mode=mode)
        assert run.executed_mode == ("batch" if mode == "auto" else "scalar")
