"""Probabilistic analysis of decision time (the paper's Section 4).

- :mod:`equations` — the closed forms (1)-(10): per-round satisfaction
  probabilities ``P_M`` under IID Bernoulli links and the expected number
  of rounds to global decision ``E(D_M)``.
- :mod:`asymptotics` — Appendix C: behaviour of ``E(D_M)`` as ``n`` grows,
  including the Chernoff-bound proof sketch that ``E(D_AFM) -> 5``.
- :mod:`montecarlo` — sampling validation of the closed forms, plus the
  *exact* run-length formula the paper's renewal approximation rounds off.
- :mod:`crossover` — locate the ``p`` values where the models' curves
  cross (the paper's 0.96 / 0.97 observations) and optimal-timeout search.
- :mod:`stats` — the summary statistics used by the measurement figures
  (means, variance, 95% confidence intervals).
- :mod:`stabilization` — decision-round predictions under eventually
  stabilizing message adversaries (post-paper scenario family).

The package re-exports the closed forms, the crossover search and the
summary statistics, which the plain CLI loads anyway; import
:mod:`asymptotics`, :mod:`montecarlo` and :mod:`stabilization` from
their modules (the last pulls in the fault and GIRAF packages).
"""

from repro.analysis.equations import (
    p_es,
    p_gs,
    p_lm,
    p_wlm,
    p_afm,
    pr_majority_given_leader,
    pr_row_majority,
    expected_rounds_paper,
    expected_rounds_exact,
    expected_decision_rounds,
    DECISION_ROUNDS,
    P_MODEL,
)
from repro.analysis.crossover import find_crossover, optimal_timeout
from repro.analysis.stats import mean_confidence_interval, summarize

__all__ = [
    "p_es",
    "p_gs",
    "p_lm",
    "p_wlm",
    "p_afm",
    "pr_majority_given_leader",
    "pr_row_majority",
    "expected_rounds_paper",
    "expected_rounds_exact",
    "expected_decision_rounds",
    "DECISION_ROUNDS",
    "P_MODEL",
    "find_crossover",
    "optimal_timeout",
    "mean_confidence_interval",
    "summarize",
]
