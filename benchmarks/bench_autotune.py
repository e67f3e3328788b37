"""Autotuning-gym gate: enumerated policies beat hand rules, fast enough.

Runs the full distillation pipeline on the paper's n = 992 collision
scenario over the Table-I hardware grid (V100/A100/MI100 x batch sizes
16..16384) and gates four claims of the autotuning layer:

* **never worse** — on EVERY (GPU, batch) cell the distilled
  configuration's modelled batch wall-clock is <= the hand-rule
  baseline's (guaranteed by the hand-rule fallback, verified here end
  to end);
* **strictly better somewhere** — the distilled policy must win outright
  (beyond ``--min-gain``) on at least ``--min-win-fraction`` of the
  cells, otherwise the gym is dead weight;
* **throughput** — the memoized cost-model environment must price at
  least ``--min-evals-per-sec`` configurations per second at the LARGEST
  batch size (the worst case for the scheduler model), measured on true
  cache-miss evaluations;
* **memoization win** — the ``solver_schedule``/``iteration_work``
  caches must make repeated pricing at least ``--min-memo-speedup``x
  faster than cold construction (micro-benchmark of the schedule layer).

Also verifies the policy JSON round-trip (save -> load -> identical
decisions) and writes ``BENCH_autotune.json`` plus the distilled
``BENCH_autotune.best_configs.json`` at the repo root.  Run standalone
(CI gate)::

    PYTHONPATH=src python benchmarks/bench_autotune.py

Exit status is non-zero when any gate fails.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from repro.core.solvers.schedule import _FIXED_SCHEDULES, solver_schedule
from repro.gpu import TABLE1_GPUS
from repro.tune import (
    CostModelEnv,
    TuningPolicy,
    distill_policy,
    space_for_scenario,
    xgc_scenario,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Batch sizes of the hardware grid (powers of four, 16..16384 — spans
#: the paper's smallest node count to past slot saturation on every GPU).
GRID_BATCHES = (16, 64, 256, 1024, 4096, 16384)


def measure_eval_rate(env: CostModelEnv, space, min_evals: int = 300):
    """True cost-model evaluations per second (cache misses only)."""
    configs = list(space.enumerate())
    t0 = time.perf_counter()
    done = 0
    while done < min_evals:
        for config in configs:
            env.evaluate(config)
        done = env.evaluations
        if env.evaluations >= len(configs):
            # Space exhausted: every further pass is cache hits; the
            # rate below reflects only the misses already counted.
            break
    elapsed = time.perf_counter() - t0
    return env.evaluations / elapsed, env.evaluations


def measure_memo_speedup(repeats: int = 2000):
    """Cached ``solver_schedule`` calls vs cold schedule construction."""
    t0 = time.perf_counter()
    for _ in range(repeats):
        for name, build in _FIXED_SCHEDULES.items():
            build()
    cold = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(repeats):
        for name in _FIXED_SCHEDULES:
            solver_schedule(name)
    warm = time.perf_counter() - t0
    return cold / warm, cold / repeats, warm / repeats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--min-gain", type=float, default=0.02,
                        help="relative gain counting as a strict win")
    parser.add_argument("--min-win-fraction", type=float, default=0.10,
                        help="fraction of cells that must win strictly")
    parser.add_argument("--min-evals-per-sec", type=float, default=1000.0)
    parser.add_argument("--min-memo-speedup", type=float, default=3.0)
    parser.add_argument("--output", type=pathlib.Path,
                        default=REPO_ROOT / "BENCH_autotune.json")
    args = parser.parse_args(argv)

    scenario = xgc_scenario()
    space = space_for_scenario(scenario)

    # -- distill the policy over the full hardware grid ----------------
    t0 = time.perf_counter()
    policy = distill_policy(TABLE1_GPUS, scenario, GRID_BATCHES)
    distill_s = time.perf_counter() - t0

    cells = []
    for key in sorted(policy.entries):
        e = policy.entries[key]
        gain = (e.baseline_cost - e.cost) / e.baseline_cost
        cells.append({
            "key": key,
            "hardware": e.hardware,
            "num_batch": e.num_batch,
            "searched_s": e.cost,
            "baseline_s": e.baseline_cost,
            "relative_gain": gain,
            "config": e.config.to_dict(),
        })
    wins = sum(c["relative_gain"] > args.min_gain for c in cells)
    win_fraction = wins / len(cells)

    # -- throughput at the largest batch (worst case) ------------------
    rate_env = CostModelEnv(TABLE1_GPUS[0], scenario, max(GRID_BATCHES))
    evals_per_sec, rate_evals = measure_eval_rate(rate_env, space)

    # -- memoization micro-benchmark -----------------------------------
    memo_speedup, cold_s, warm_s = measure_memo_speedup()

    # -- policy artifact round-trip ------------------------------------
    policy.save(args.output.with_suffix(".best_configs.json"))
    reloaded = TuningPolicy.load(args.output.with_suffix(".best_configs.json"))
    roundtrip_ok = reloaded.to_dict() == policy.to_dict()

    report = {
        "bench": "autotune",
        "config": {
            "grid_batches": list(GRID_BATCHES),
            "space_size": space.size(),
            "min_gain": args.min_gain,
            "min_win_fraction": args.min_win_fraction,
        },
        "cells": cells,
        "wins": wins,
        "win_fraction": win_fraction,
        "distill_seconds": distill_s,
        "evals_per_sec": evals_per_sec,
        "evals_measured": rate_evals,
        "memo_speedup": memo_speedup,
        "memo_cold_s_per_pass": cold_s,
        "memo_warm_s_per_pass": warm_s,
        "policy_roundtrip_ok": roundtrip_ok,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    print(f"Autotuning gate: {len(cells)} grid cells "
          f"({len(GRID_BATCHES)} batches x {len(TABLE1_GPUS)} GPUs), "
          f"space of {space.size()} configs enumerated per cell:")
    worst = min(cells, key=lambda c: c["relative_gain"])
    best = max(cells, key=lambda c: c["relative_gain"])
    print(f"  distilled vs hand rules: {wins}/{len(cells)} strict wins "
          f"(>{args.min_gain:.0%}), worst cell {worst['key']} "
          f"{worst['relative_gain']:+.1%}, best cell {best['key']} "
          f"{best['relative_gain']:+.1%}")
    print(f"  throughput: {evals_per_sec:.0f} cost-model evals/s at batch "
          f"{max(GRID_BATCHES)} ({rate_evals} true evaluations)")
    print(f"  memoization: cached schedules {memo_speedup:.1f}x faster "
          f"than cold construction")
    print(f"  distilled {len(policy)} cells in {distill_s:.2f}s")
    print(f"  report: {args.output}")

    failures = []
    for cell in cells:
        if cell["searched_s"] > cell["baseline_s"] * (1 + 1e-12):
            failures.append(
                f"distilled config loses to hand rules on {cell['key']} "
                f"({cell['searched_s']:.3e}s vs {cell['baseline_s']:.3e}s)"
            )
    if win_fraction < args.min_win_fraction:
        failures.append(
            f"only {wins}/{len(cells)} cells win strictly "
            f"(need {args.min_win_fraction:.0%})"
        )
    if evals_per_sec < args.min_evals_per_sec:
        failures.append(
            f"throughput {evals_per_sec:.0f} evals/s below "
            f"{args.min_evals_per_sec:.0f}"
        )
    if memo_speedup < args.min_memo_speedup:
        failures.append(
            f"schedule memoization speedup {memo_speedup:.2f}x below "
            f"{args.min_memo_speedup}x"
        )
    if not roundtrip_ok:
        failures.append("policy JSON round-trip is not identical")

    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
