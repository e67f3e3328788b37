"""Operator-zoo gate: conservation, direct-vs-iterative, fig6 on every GPU.

Exercises the tridiagonal model operators (Lenard-Bernstein, Dougherty,
multi-species Landau coupling) end to end and gates three claims:

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
  produces a complete series per GPU.

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
from repro.gpu import GPUS
from repro.xgc import OPERATOR_SCENARIOS, run_operator_scenario

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Batch sizes for the measured direct-vs-iterative comparison.
CROSSOVER_BATCHES = (8, 64, 256)


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=pathlib.Path,
                        default=REPO_ROOT / "BENCH_operators.json")
    args = parser.parse_args(argv)

    conservation, conservation_ok = conservation_gate()
    crossover, crossover_ok = crossover_gate()
    fig6_summary, fig6_ok = fig6_zoo_gate()

    report = {
        "bench": "operators",
        "config": {
            "crossover_batches": list(CROSSOVER_BATCHES),
            "gpus": [hw.name for hw in GPUS],
        },
        "conservation": conservation,
        "conservation_ok": conservation_ok,
        "crossover": crossover,
        "crossover_ok": crossover_ok,
        "fig6_zoo": fig6_summary,
        "fig6_zoo_ok": fig6_ok,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    print(f"Operator gate: {len(conservation)} conservation cells, "
          f"{len(crossover)} crossover batches, fig6 on {len(GPUS)} GPUs:")
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
    print(f"  report: {args.output}")

    ok = conservation_ok and crossover_ok and fig6_ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
