"""Precision sweep on the XGC collision pattern: fp32/mixed vs fp64.

Sweeps precision x format x batch size on the paper's n = 992 collision
stencil and gates the four claims of the precision-policy layer:

* **host speedup** — fp32 storage halves the bytes every memory-bound
  kernel streams, so the batched SpMV (and the solver iteration built on
  it) must speed up measurably; the gate requires ≥ ``--min-fp32-speedup``
  for the best sparse format at the largest batch (>= 1000 systems);
* **refinement accuracy** — :class:`~repro.core.solvers.RefinementSolver`
  with a low-precision inner solver must reach the same 1e-10 absolute
  residual tolerance as the pure-fp64 solve;
* **modeled GPU time** — with ``value_bytes=4`` the performance model
  must predict a faster solve on every GPU x format combination (9 total);
* **Picard parity** — a mixed-precision Picard step must follow the fp64
  contraction trajectory (same iteration structure, matching updates) and
  land on the same state to refinement accuracy.

Writes ``BENCH_precision.json`` at the repo root.  Run standalone
(CI parity + perf gate)::

    PYTHONPATH=src python benchmarks/bench_precision.py --min-fp32-speedup 1.0

Exit status is non-zero when any gate fails.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

import numpy as np

from timing import best_of

from repro.core import to_format
from repro.core.solvers import BatchBicgstab, RefinementSolver
from repro.core.stop import AbsoluteResidual, RelativeResidual
from repro.gpu import TABLE1_GPUS, estimate_iterative_solve
from repro.xgc import CollisionProxyApp, PicardOptions, ProxyAppConfig

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Formats swept on the host (dense is omitted: 7.9 MB/system at n=992).
SPARSE_FORMATS = ("csr", "ell", "dia")

#: n=992 stencil constants for the GPU model (stored nnz includes the
#: DIA/ELL fringe padding the kernels stream).
N992, NNZ, STORED_NNZ = 992, 8832, 8928


def build_batch(num_batch: int, seed: int = 2022):
    """The n=992 collision batch: matrix in CSR plus the state vectors."""
    if num_batch % 2:
        raise ValueError("num_batch must be even (electron+ion per node)")
    app = CollisionProxyApp(ProxyAppConfig(
        num_mesh_nodes=num_batch // 2,
        seed=seed,
        picard=PicardOptions(matrix_format="csr"),
    ))
    matrix, f = app.build_matrices()
    return matrix, f


def sweep_batch(num_batch: int, repeats: int) -> dict:
    """Time SpMV and a solver iteration at fp64/fp32 for one batch size."""
    csr64, f64 = build_batch(num_batch)
    f32 = f64.astype(np.float32)
    entry = {"num_batch": num_batch, "num_rows": csr64.num_rows, "formats": {}}

    for fmt in SPARSE_FORMATS:
        m64 = to_format(csr64, fmt)
        m32 = m64.astype(np.float32)
        out64 = np.empty_like(f64)
        out32 = np.empty_like(f32)
        t64 = best_of(lambda: m64.apply(f64, out=out64), repeats, inner=5)[0]
        t32 = best_of(lambda: m32.apply(f32, out=out32), repeats, inner=5)[0]
        entry["formats"][fmt] = {
            "spmv_fp64_s": t64,
            "spmv_fp32_s": t32,
            "spmv_fp32_speedup": t64 / t32,
        }

    # Whole-solver (fused BLAS-1 + SpMV) timing: same relative target for
    # both precisions so the per-iteration cost is what's compared.
    ell64 = to_format(csr64, "ell")
    solve = {}
    for prec, mat, rhs in (("fp64", ell64, f64), ("fp32", None, f32)):
        solver = BatchBicgstab(
            preconditioner="jacobi", criterion=RelativeResidual(1e-4),
            max_iter=200, precision=prec,
        )
        mat = mat if mat is not None else ell64.astype(np.float32)
        res = solver.solve(mat, rhs)  # warm-up + iteration count
        iters = float(res.iterations.sum())
        t = best_of(lambda: solver.solve(mat, rhs), max(repeats // 2, 1))[0]
        solve[prec] = {"time_s": t, "iterations": iters,
                       "time_per_iteration_s": t / iters}
    entry["solve"] = solve
    entry["solve_fp32_speedup_per_iteration"] = (
        solve["fp64"]["time_per_iteration_s"]
        / solve["fp32"]["time_per_iteration_s"]
    )
    entry["best_spmv_fp32_speedup"] = max(
        entry["formats"][f]["spmv_fp32_speedup"] for f in SPARSE_FORMATS
    )
    return entry


def refinement_accuracy(num_batch: int = 64, tol: float = 1e-10) -> dict:
    """fp32-inner refinement must reach the pure-fp64 residual tolerance."""
    csr, f = build_batch(num_batch)
    ell = to_format(csr, "ell")

    gold = BatchBicgstab(
        preconditioner="jacobi", criterion=AbsoluteResidual(tol), max_iter=500,
    ).solve(ell, f)
    refined = RefinementSolver(precision="mixed", preconditioner="jacobi",
                               criterion=AbsoluteResidual(tol)).solve(ell, f)

    def true_residual(x):
        return float(np.abs(ell.apply(x) - f).max())

    return {
        "num_batch": num_batch,
        "tolerance": tol,
        "fp64_converged": bool(gold.converged.all()),
        "refined_converged": bool(refined.converged.all()),
        "fp64_max_residual": float(gold.residual_norms.max()),
        "refined_max_residual": float(refined.residual_norms.max()),
        "fp64_true_residual_inf": true_residual(gold.x),
        "refined_true_residual_inf": true_residual(refined.x),
        "max_solution_deviation": float(np.abs(refined.x - gold.x).max()),
    }


def gpu_model_sweep(num_batch: int = 1000, iterations: float = 20.0) -> list:
    """Modeled solve time at fp64 vs fp32 for every GPU x format combo."""
    iters = np.full(num_batch, iterations)
    combos = []
    for hw in TABLE1_GPUS:
        for fmt in SPARSE_FORMATS:
            stored = None if fmt == "csr" else STORED_NNZ
            t64 = estimate_iterative_solve(
                hw, fmt, N992, NNZ, iters, stored_nnz=stored,
            ).total_time_s
            t32 = estimate_iterative_solve(
                hw, fmt, N992, NNZ, iters, stored_nnz=stored, value_bytes=4,
            ).total_time_s
            combos.append({
                "gpu": hw.name, "format": fmt,
                "fp64_time_s": t64, "fp32_time_s": t32,
                "fp32_speedup": t64 / t32,
            })
    return combos


def picard_parity(num_mesh_nodes: int = 4, num_steps: int = 1) -> dict:
    """Mixed-precision Picard must track the fp64 contraction trajectory."""
    results = {}
    for prec in ("fp64", "mixed"):
        app = CollisionProxyApp(ProxyAppConfig(
            num_mesh_nodes=num_mesh_nodes,
            picard=PicardOptions(precision=prec),
        ))
        results[prec] = app.run(num_steps)
    updates = {
        prec: np.concatenate([s.picard_updates for s in r.step_results])
        for prec, r in results.items()
    }
    f64, fmx = results["fp64"].f_final, results["mixed"].f_final
    same_structure = updates["fp64"].shape == updates["mixed"].shape
    max_update_dev = (
        float(np.abs(updates["mixed"] / updates["fp64"] - 1.0).max())
        if same_structure else float("inf")
    )
    return {
        "num_mesh_nodes": num_mesh_nodes,
        "num_steps": num_steps,
        "picard_iterations_fp64": int(updates["fp64"].size),
        "picard_iterations_mixed": int(updates["mixed"].size),
        "max_relative_update_deviation": max_update_dev,
        "max_state_deviation": float(np.abs(fmx - f64).max()),
        "mixed_converged": bool(results["mixed"].step_results[-1].converged.all()),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--batch-sizes", type=str, default="64,256,1000",
                    help="comma-separated batch sizes; the largest carries "
                    "the speedup gate")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--min-fp32-speedup", type=float, default=1.5,
                    help="fail (exit 1) below this fp32 SpMV speedup (best "
                    "sparse format) at the largest batch; CI uses 1.0, the "
                    "acceptance target is 1.5")
    ap.add_argument("--refinement-tol", type=float, default=1e-10)
    ap.add_argument("--output", type=pathlib.Path,
                    default=REPO_ROOT / "BENCH_precision.json")
    args = ap.parse_args(argv)

    batch_sizes = sorted(int(b) for b in args.batch_sizes.split(","))
    sweeps = [sweep_batch(nb, args.repeats) for nb in batch_sizes]
    refinement = refinement_accuracy(tol=args.refinement_tol)
    gpu_model = gpu_model_sweep()
    picard = picard_parity()

    report = {
        "benchmark": "precision_policy_xgc_stencil",
        "config": {
            "batch_sizes": batch_sizes,
            "repeats": args.repeats,
            "min_fp32_speedup": args.min_fp32_speedup,
            "refinement_tol": args.refinement_tol,
        },
        "sweeps": sweeps,
        "refinement": refinement,
        "gpu_model": gpu_model,
        "picard": picard,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    print(f"Precision sweep, n={sweeps[0]['num_rows']} XGC stencil:")
    print(f"  {'batch':>6} " + "".join(
        f"{f + ' x32':>10}" for f in SPARSE_FORMATS
    ) + f"{'iter x32':>10}  (fp32 speedups)")
    for s in sweeps:
        row = f"  {s['num_batch']:>6} "
        for fmt in SPARSE_FORMATS:
            row += f"{s['formats'][fmt]['spmv_fp32_speedup']:9.2f}x"
        row += f"{s['solve_fp32_speedup_per_iteration']:9.2f}x"
        print(row)
    print(f"  refinement: fp64 residual {refinement['fp64_max_residual']:.2e}, "
          f"refined {refinement['refined_max_residual']:.2e} "
          f"(tol {args.refinement_tol:.0e})")
    worst = min(gpu_model, key=lambda c: c["fp32_speedup"])
    print(f"  gpu model: fp32 faster on {sum(c['fp32_speedup'] > 1 for c in gpu_model)}"
          f"/{len(gpu_model)} combos (worst {worst['fp32_speedup']:.2f}x on "
          f"{worst['gpu']}/{worst['format']})")
    print(f"  picard mixed: {picard['picard_iterations_mixed']} iterations "
          f"(fp64: {picard['picard_iterations_fp64']}), state deviation "
          f"{picard['max_state_deviation']:.2e}")
    print(f"  report: {args.output}")

    failures = []
    top = sweeps[-1]
    if top["num_batch"] >= 1000 and top["best_spmv_fp32_speedup"] < args.min_fp32_speedup:
        failures.append(
            f"fp32 SpMV speedup {top['best_spmv_fp32_speedup']:.2f}x at batch "
            f"{top['num_batch']} below required {args.min_fp32_speedup:.2f}x"
        )
    if not refinement["refined_converged"]:
        failures.append("refinement did not converge")
    if refinement["refined_max_residual"] >= args.refinement_tol:
        failures.append(
            f"refined residual {refinement['refined_max_residual']:.2e} not "
            f"below the fp64 tolerance {args.refinement_tol:.0e}"
        )
    for combo in gpu_model:
        if combo["fp32_time_s"] >= combo["fp64_time_s"]:
            failures.append(
                f"modeled fp32 time not lower on {combo['gpu']}/{combo['format']}"
            )
    if picard["picard_iterations_mixed"] != picard["picard_iterations_fp64"]:
        failures.append("mixed-precision Picard changed the iteration count")
    if picard["max_relative_update_deviation"] > 1e-3:
        failures.append(
            f"mixed-precision Picard updates deviate by "
            f"{picard['max_relative_update_deviation']:.2e} (> 1e-3)"
        )
    if not picard["mixed_converged"]:
        failures.append("mixed-precision Picard inner solves did not converge")

    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
