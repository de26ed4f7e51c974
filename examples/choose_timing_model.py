#!/usr/bin/env python
"""The paper's title, as one function call.

`choose_timing_model` runs the whole Section 5 methodology against a
network profile — ping, elect a leader, sweep timeouts, measure each
model's conditions and decision times, locate the optima — and applies
the paper's conclusion: prefer the linear-message ◊WLM whenever its best
decision time is close to the overall best.

Run:  python examples/choose_timing_model.py
"""

from repro.experiments.selection import choose_timing_model
from repro.net import planetlab_profile
from repro.net.lan import LanProfile
from repro.net.planetlab import PLANETLAB_SITES


def main() -> None:
    print("=== WAN (synthetic PlanetLab) ===")
    wan = choose_timing_model(
        planetlab_profile,
        timeouts=(0.15, 0.16, 0.17, 0.18, 0.20, 0.21, 0.23, 0.26),
        rounds_per_run=200,
        runs=6,
        seed=11,
    )
    print(wan.summary())
    print(f"(leader node {wan.leader} = {PLANETLAB_SITES[wan.leader]})")

    print("\n=== LAN (8 nodes, 100 Mbit) ===")
    lan = choose_timing_model(
        lambda seed: LanProfile(seed=seed),
        timeouts=(0.0002, 0.00035, 0.0005, 0.0009, 0.0012, 0.0016),
        rounds_per_run=150,
        runs=6,
        seed=23,
    )
    print(lan.summary())

    assert wan.chosen_model, "the WAN sweep must produce a recommendation"
    assert lan.chosen_model, "the LAN sweep must produce a recommendation"


if __name__ == "__main__":
    main()
