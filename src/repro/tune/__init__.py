"""Autotuning gym: enumerated solver configuration over the GPU cost model.

The hand rules in :mod:`repro.gpu.tuning` encode the paper's automatic
tuning strategy.  This package prices the *whole* decision space against
the identical analytic cost model and keeps the exact argmin:

* :mod:`~repro.tune.space` — the typed configuration space (solver ×
  format × precision × restart × shared-memory residency × compaction)
  with per-scenario validity masks;
* :mod:`~repro.tune.env` — the evaluation harness pricing configs via
  :func:`repro.gpu.timing.estimate_iterative_solve` (memoized, counted)
  and :func:`~repro.tune.env.exhaustive_best`, the enumerated argmin;
* :mod:`~repro.tune.policy` — distilled ``best_configs.json`` policies
  that :func:`repro.gpu.tuning.tune_for_matrix` consults before its hand
  rules.

A distilled cell keeps the hand-rule config unless the argmin is
strictly cheaper, so a policy is never worse than the rules it replaces
— and the CI gate in ``benchmarks/bench_autotune.py`` enforces exactly
that on the Table-I hardware grid.
"""

from .env import (
    CostModelEnv,
    TuneScenario,
    exhaustive_best,
    named_scenario,
    scenario_names,
    tridiag_operator_scenario,
    xgc_scenario,
)
from .policy import PolicyEntry, TuningPolicy, baseline_config, distill_policy
from .space import ConfigSpace, TuneConfig, space_for_scenario

__all__ = [
    "ConfigSpace",
    "CostModelEnv",
    "PolicyEntry",
    "TuneConfig",
    "TuneScenario",
    "TuningPolicy",
    "baseline_config",
    "distill_policy",
    "exhaustive_best",
    "named_scenario",
    "scenario_names",
    "space_for_scenario",
    "tridiag_operator_scenario",
    "xgc_scenario",
]
