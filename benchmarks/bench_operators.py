"""Operator-zoo gate: conservation, direct-vs-iterative, expanded tuning.

Exercises the tridiagonal model operators (Lenard-Bernstein, Dougherty,
multi-species Landau coupling) end to end and gates four claims:

* **conservation** — every predefined scenario passes its conservation
  envelope through both the direct (Thomas) and the iterative (BiCGSTAB
  on DIA) solve path: density exact, momentum/energy within the
  operator-appropriate tolerances;
* **direct wins on tridiagonal** — the related-work claim restaged on
  real kernels: at every batch size the batched Thomas sweep beats the
  preconditioned iterative solve per entry (these are the systems the
  specialised direct kernels were built for);
* **fig6 regenerates on every target** — the crossover study runs
  cleanly over the full hardware zoo (Table I + H100/MI250X/PVC) and
  produces a complete series per GPU;
* **never worse on the expanded grid** — the autotuning gym's policy,
  enumerated per operator scenario over all six GPUs, never loses to the
  hand-rule baseline on any (GPU, scenario, batch) cell.

Writes ``BENCH_operators.json`` at the repo root.  Run standalone (CI
gate)::

    PYTHONPATH=src python benchmarks/bench_operators.py

Exit status is non-zero when any gate fails.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

import numpy as np

from timing import best_of

from repro.core import AbsoluteResidual, make_solver
from repro.experiments.figures import fig6
from repro.gpu import GPUS, estimate_iterative_solve
from repro.tune import distill_policy, tridiag_operator_scenario
from repro.xgc import OPERATOR_SCENARIOS, run_operator_scenario

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Batch sizes for the measured direct-vs-iterative comparison.
CROSSOVER_BATCHES = (8, 64, 256)

#: Batch sizes of the expanded tuning grid (kept small: the gate prices
#: the whole space on every cell of every scenario in CI).
GRID_BATCHES = (16, 256, 4096)


def conservation_gate() -> tuple[list[dict], bool]:
    rows, ok = [], True
    for name in sorted(OPERATOR_SCENARIOS):
        for solver in ("thomas", "bicgstab"):
            kwargs = {} if solver == "thomas" else dict(
                fmt="dia", tolerance=1e-12)
            outcome = run_operator_scenario(name, solver=solver, **kwargs)
            worst = outcome.report.worst()
            rows.append({
                "scenario": name,
                "solver": solver,
                "pass": bool(outcome.ok),
                "density_drift": worst["density"],
                "momentum_drift": worst["momentum"],
                "energy_drift": worst["energy"],
            })
            ok = ok and outcome.ok
    return rows, ok


def crossover_gate() -> tuple[list[dict], bool]:
    rows, ok = [], True
    iterative = make_solver(
        "bicgstab", preconditioner="jacobi",
        criterion=AbsoluteResidual(1e-12), max_iter=500,
    )
    for nb in CROSSOVER_BATCHES:
        outcome = run_operator_scenario("dougherty", num_nodes=nb)
        op, f0 = outcome.operator, outcome.f_before
        t_direct = best_of(lambda: op.solve_direct(f0), 3)[0]
        dia = op.matrix("dia")
        t_iter = best_of(lambda: iterative.solve(dia, f0), 3)[0]
        rows.append({
            "num_batch": nb,
            "thomas_per_entry_s": t_direct / nb,
            "bicgstab_per_entry_s": t_iter / nb,
            "direct_speedup": t_iter / t_direct,
        })
        ok = ok and t_direct <= t_iter
    return rows, ok


def fig6_zoo_gate() -> tuple[dict, bool]:
    result = fig6(gpus=GPUS)
    rows = result.data["series"]
    expected = {f"{hw.name}-{fmt}" for hw in GPUS for fmt in ("csr", "ell")}
    complete = all(
        expected <= set(entry) and
        all(np.isfinite(v) and v > 0 for v in entry.values())
        for entry in rows.values()
    )
    largest = rows[max(rows)]
    summary = {
        "batch_sizes": sorted(rows),
        "series": sorted(largest),
        "fastest_at_largest_batch": min(largest, key=largest.get),
    }
    return summary, complete


def modelled_operator_table() -> list[dict]:
    """Informational: modelled per-GPU solve time of one operator batch."""
    rows = []
    for name in sorted(OPERATOR_SCENARIOS):
        scenario = tridiag_operator_scenario(name)
        its = np.full(
            960, int(round(max(v for _, v in scenario.iterations)))
        )
        for hw in GPUS:
            est = estimate_iterative_solve(
                hw, "dia", scenario.num_rows, scenario.nnz, its,
                stored_nnz=scenario.stored_entries("dia"),
            )
            rows.append({
                "scenario": name,
                "hardware": hw.name,
                "total_time_s": est.total_time_s,
                "per_entry_time_s": est.per_entry_time_s,
            })
    return rows


def autotune_gate() -> tuple[list[dict], bool]:
    cells, ok = [], True
    for name in sorted(OPERATOR_SCENARIOS):
        scenario = tridiag_operator_scenario(name)
        policy = distill_policy(GPUS, scenario, GRID_BATCHES)
        for key in sorted(policy.entries):
            e = policy.entries[key]
            gain = (e.baseline_cost - e.cost) / e.baseline_cost
            cells.append({
                "scenario": name,
                "hardware": e.hardware,
                "num_batch": e.num_batch,
                "searched_s": e.cost,
                "baseline_s": e.baseline_cost,
                "relative_gain": gain,
                "config": e.config.to_dict(),
            })
            ok = ok and e.cost <= e.baseline_cost * (1 + 1e-12)
    return cells, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=pathlib.Path,
                        default=REPO_ROOT / "BENCH_operators.json")
    args = parser.parse_args(argv)

    conservation, conservation_ok = conservation_gate()
    crossover, crossover_ok = crossover_gate()
    fig6_summary, fig6_ok = fig6_zoo_gate()
    tuning_cells, tuning_ok = autotune_gate()

    report = {
        "bench": "operators",
        "config": {
            "crossover_batches": list(CROSSOVER_BATCHES),
            "grid_batches": list(GRID_BATCHES),
            "gpus": [hw.name for hw in GPUS],
        },
        "conservation": conservation,
        "conservation_ok": conservation_ok,
        "crossover": crossover,
        "crossover_ok": crossover_ok,
        "fig6_zoo": fig6_summary,
        "fig6_zoo_ok": fig6_ok,
        "modelled_operator_solves": modelled_operator_table(),
        "tuning_cells": tuning_cells,
        "tuning_never_worse_ok": tuning_ok,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    print(f"Operator gate: {len(conservation)} conservation cells, "
          f"{len(crossover)} crossover batches, "
          f"{len(tuning_cells)} tuning cells over {len(GPUS)} GPUs:")
    worst_cons = max(conservation, key=lambda r: r["density_drift"])
    print(f"  conservation: {'PASS' if conservation_ok else 'FAIL'} "
          f"(worst density drift {worst_cons['density_drift']:.2e} "
          f"at {worst_cons['scenario']}/{worst_cons['solver']})")
    worst_x = min(crossover, key=lambda r: r["direct_speedup"])
    print(f"  direct vs iterative: {'PASS' if crossover_ok else 'FAIL'} "
          f"(Thomas at least {worst_x['direct_speedup']:.1f}x faster, "
          f"batch {worst_x['num_batch']})")
    print(f"  fig6 hardware zoo: {'PASS' if fig6_ok else 'FAIL'} "
          f"(fastest series at largest batch: "
          f"{fig6_summary['fastest_at_largest_batch']})")
    worst_cell = min(tuning_cells, key=lambda c: c["relative_gain"])
    print(f"  expanded-grid tuning: {'PASS' if tuning_ok else 'FAIL'} "
          f"(worst cell gain {worst_cell['relative_gain']:+.3f} at "
          f"{worst_cell['scenario']}/{worst_cell['hardware']}"
          f"/b{worst_cell['num_batch']})")
    print(f"  report: {args.output}")

    ok = conservation_ok and crossover_ok and fig6_ok and tuning_ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
