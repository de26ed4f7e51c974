"""Online timing-model selection — the paper's question, asked at runtime.

The offline selector (:mod:`repro.experiments.selection`) answers "which
model and timeout for *this* network?" once, from a dedicated measurement
sweep.  This package answers it continuously, from the deliveries a live
system observes anyway:

- :class:`TimelinessExtractor` maintains a sliding-window timeliness
  graph from observed per-round latencies and delivery matrices (the
  matrices :class:`repro.oracles.omega.HeartbeatOmega` observes), and
  classifies which model conditions (ES/◊LM/◊WLM/◊AFM)
  currently hold and at which timeout;
- :class:`AdaptivePolicy` turns the extractor's estimates into switching
  decisions — between consensus instances, a
  :class:`repro.smr.ReplicaGroup` swaps its algorithm factory and
  retunes its timeout, with hysteresis so measurement noise does not
  thrash the configuration;
- :mod:`repro.adaptive.scenario` puts the loop under churn (slow node,
  partition) and compares it against every fixed (model, timeout) pair;
- :mod:`repro.adaptive.live` feeds the extractor from the event stack's
  batched hot path (``on_round_matrix`` straight off the vectorized
  arrays) and cross-checks it against a forced-scalar replay.
"""

from repro.adaptive.extractor import ModelEstimate, TimelinessExtractor
from repro.adaptive.live import (
    LiveExtractionReport,
    render_live_extraction,
    run_live_extraction,
)
from repro.adaptive.policy import AdaptivePolicy, FixedPolicy, PolicyOracle
from repro.adaptive.scenario import (
    ScenarioComparison,
    ScenarioConfig,
    adaptive_report,
    granular_scenario_config,
    run_adaptive_scenario,
)

__all__ = [
    "ModelEstimate",
    "TimelinessExtractor",
    "AdaptivePolicy",
    "FixedPolicy",
    "PolicyOracle",
    "LiveExtractionReport",
    "render_live_extraction",
    "run_live_extraction",
    "ScenarioConfig",
    "ScenarioComparison",
    "adaptive_report",
    "granular_scenario_config",
    "run_adaptive_scenario",
]
