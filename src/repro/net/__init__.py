"""Network substrate: link and latency models.

The paper evaluates on a real 100 Mbit LAN and on PlanetLab.  This package
provides the simulated stand-ins (see DESIGN.md, "Substitutions"):

- :mod:`base` — :class:`LatencyModel`, the one latency interface: scalar
  per-message sampling for the transport, and batch sampling in
  256-round columns of every link for the transport's streams and the
  measurement sweeps' whole traces.
- :mod:`hetero` — the shared implementation behind the LAN and PlanetLab
  profiles (log-normal body, Pareto tail, loss, slow-node windows), and
  the symmetric mid-latency ``uniform_wan_profile``.
- :mod:`iid` — the Section 4 IID Bernoulli abstraction as a link model.
- :mod:`lan` — an 8-node switched-LAN profile (sub-millisecond latencies,
  one occasionally slow node, as observed in Section 5.2).
- :mod:`planetlab` — a synthetic 8-site PlanetLab profile with the paper's
  node set (Switzerland, Japan, California, Georgia, China, Poland, UK,
  Sweden), heterogeneous base latencies, heavy tails, loss, and a slow
  Poland node (Section 5.3).
- :mod:`ping` — latency-table measurement and well-connected-leader
  selection (how the paper "elects" its designated leader).
- :mod:`granular` — Granular Synchrony wrapper: a per-link
  sync/psync/async assumption matrix enforced on top of any profile
  (``granular_wan_profile``: the uniform WAN under the canonical one).
"""

from repro.net.base import LatencyModel
from repro.net.iid import BernoulliLinkModel
from repro.net.granular import GranularProfile, granular_wan_profile
from repro.net.hetero import uniform_wan_profile
from repro.net.lan import LanProfile, lan_profile
from repro.net.planetlab import PlanetLabProfile, planetlab_profile, PLANETLAB_SITES
from repro.net.ping import measure_latency_table, select_leader

__all__ = [
    "LatencyModel",
    "BernoulliLinkModel",
    "GranularProfile",
    "granular_wan_profile",
    "uniform_wan_profile",
    "LanProfile",
    "lan_profile",
    "PlanetLabProfile",
    "planetlab_profile",
    "PLANETLAB_SITES",
    "measure_latency_table",
    "select_leader",
]
