"""Solver schedule conformance gate behind Fig. 6's per-solver costs.

The Fig. 6 series itself comes from :func:`repro.experiments.fig6`, and
its orderings are checked by the tier-1 claim tests.  Run this gate
standalone (CI schedule-conformance gate)::

    PYTHONPATH=src python benchmarks/bench_fig6_solvers.py

It runs every iterative solver on the real n = 992 XGC collision batch
under full operation-count instrumentation, asserts the measured kernel
invocations equal the declared
:class:`~repro.core.solvers.schedule.OpSchedule` totals, charges each
solver's measured iterations through the GPU model (each must get its own
distinct modelled cost, not a silent BiCGSTAB fallback), and writes
``BENCH_solver_schedules.json`` at the repo root.  Exit status is
non-zero on any conformance or model-distinctness failure.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from repro.core import AbsoluteResidual, make_solver
from repro.core.solvers.schedule import (
    iterative_solver_names,
    measure_op_counts,
    solver_schedule,
)
from repro.gpu import A100, estimate_iterative_solve

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

GMRES_RESTART = 30


def build_xgc_batch(num_mesh_nodes: int, seed: int = 2022):
    from repro.xgc import CollisionProxyApp, PicardOptions, ProxyAppConfig

    app = CollisionProxyApp(ProxyAppConfig(
        num_mesh_nodes=num_mesh_nodes, seed=seed,
        picard=PicardOptions(matrix_format="ell"),  # the paper's format
    ))
    matrix, f = app.build_matrices()
    return app, matrix, f


def run_solver_gate(matrix, f, name: str, *, tol: float, max_iter: int) -> dict:
    """One instrumented solve: measured vs declared counts + GPU estimate."""
    extra = {"restart": GMRES_RESTART} if name == "gmres" else {}
    solver = make_solver(
        name, preconditioner="jacobi", criterion=AbsoluteResidual(tol),
        max_iter=max_iter, **extra,
    )
    t0 = time.perf_counter()
    counts, stats, result = measure_op_counts(solver, matrix, f)
    wall = time.perf_counter() - t0

    declared = solver.op_schedule().expected_counts(stats)
    measured = counts.as_dict()
    stored = 9 * matrix.num_rows
    est = estimate_iterative_solve(
        A100, "ell", matrix.num_rows, matrix.nnz_per_system,
        result.iterations, stored_nnz=stored,
        solver=name, gmres_restart=GMRES_RESTART,
    )
    return {
        "solver": name,
        "measured": measured,
        "declared": declared,
        "conformant": measured == declared,
        "iterations": result.iterations.tolist(),
        "num_converged": int(result.converged.sum()),
        "host_wall_s": wall,
        "modelled_a100_ell_s": est.total_time_s,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--num-mesh-nodes", type=int, default=2,
                    help="mesh nodes of the XGC batch (2 systems per node)")
    ap.add_argument("--tol", type=float, default=1e-10)
    ap.add_argument("--max-iter", type=int, default=120)
    ap.add_argument("--output", type=pathlib.Path,
                    default=REPO_ROOT / "BENCH_solver_schedules.json")
    args = ap.parse_args(argv)

    app, matrix, f = build_xgc_batch(args.num_mesh_nodes)
    solvers = iterative_solver_names()
    entries = [
        run_solver_gate(matrix, f, name, tol=args.tol, max_iter=args.max_iter)
        for name in solvers
    ]

    report = {
        "benchmark": "solver_schedule_conformance",
        "config": {
            "num_rows": matrix.num_rows,
            "num_batch": matrix.num_batch,
            "nnz_per_system": matrix.nnz_per_system,
            "tol": args.tol,
            "max_iter": args.max_iter,
            "gmres_restart": GMRES_RESTART,
        },
        "solvers": entries,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    print(f"Solver schedule conformance, n={matrix.num_rows} XGC stencil, "
          f"{matrix.num_batch} systems:")
    print(f"  {'solver':>19} {'spmvs':>7} {'precond':>8} {'dots':>7} "
          f"{'norms':>7} {'conform':>8} {'conv':>5} {'host [s]':>9} "
          f"{'A100-ell [ms]':>14}")
    for e in entries:
        m = e["measured"]
        print(f"  {e['solver']:>19} {m['spmvs']:>7} {m['precond_applies']:>8} "
              f"{m['dots']:>7} {m['norms']:>7} "
              f"{str(e['conformant']):>8} {e['num_converged']:>5} "
              f"{e['host_wall_s']:9.2f} {e['modelled_a100_ell_s'] * 1e3:14.3f}")
    print(f"  report: {args.output}")

    failures = []
    for e in entries:
        if not e["conformant"]:
            failures.append(
                f"{e['solver']}: measured counts {e['measured']} != "
                f"declared {e['declared']}"
            )
    modelled = [e["modelled_a100_ell_s"] for e in entries]
    if len(set(modelled)) != len(modelled):
        failures.append(
            "modelled per-solver costs are not pairwise distinct: "
            + ", ".join(f"{e['solver']}={e['modelled_a100_ell_s']:.3e}"
                        for e in entries)
        )
    for name in solvers:
        # The registry must reject unknown names loudly (the old silent
        # BiCGSTAB fallback is the bug this gate guards against).
        solver_schedule(name, gmres_restart=GMRES_RESTART)
    try:
        solver_schedule("not-a-solver")
    except ValueError:
        pass
    else:
        failures.append("solver_schedule accepted an unknown solver name")

    for msg in failures:
        print(f"FAIL: {msg}")
    if not failures:
        print("OK: all solver schedules conform to the executed kernels")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
