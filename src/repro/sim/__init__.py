"""Discrete-event simulation substrate.

This package provides the deterministic, seeded event-driven machinery on
which the asynchronous experiments run: an event queue (:mod:`events`),
per-process clocks with skew and drift (:mod:`clock`), a message transport
with pluggable latency/loss models (:mod:`transport`), and named random
streams (:mod:`rng`).

The paper's WAN and LAN experiments ran on real machines; here they run on
this simulator, which reproduces the properties those experiments depend
on: heterogeneous link latencies, heavy tails, message loss, and
unsynchronized clocks.
"""

from repro.sim.events import Event, EventQueue, Simulator
from repro.sim.clock import Clock
from repro.sim.rng import RandomStreams
from repro.sim.transport import Transport, Delivery

__all__ = [
    "Event",
    "EventQueue",
    "Simulator",
    "Clock",
    "RandomStreams",
    "Transport",
    "Delivery",
]
