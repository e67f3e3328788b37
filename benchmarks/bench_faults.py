"""Benchmark of the escalation robustness layer on the host solvers.

Two questions, one gate each:

* **Overhead when healthy** — wrapping the batched BiCGSTAB in the
  escalation ladder must be (near) free when *zero* systems are unhealthy:
  the primary rung runs the exact same instruction stream, the ladder is
  never climbed, and the results are bit-identical.  The two solvers are
  timed in interleaved pairs, alternating which runs first, and the
  overhead is the median per-pair time ratio minus one; the gate fails
  the run when it exceeds ``--max-overhead`` (CI: 5%%).  The report also
  records the per-pair ratio's min/p25/p75/max, so a failing run shows
  whether its median sits inside its own spread.
* **Recovery cost** — with a handful of deterministically injected faults
  (BiCG breakdown, underflow-to-omega-breakdown, NaN warm starts) the
  ladder must recover every recoverable system to the 1e-10 tolerance;
  the report records what each rung charged, both in wall-clock and in
  modelled GPU work (:func:`repro.gpu.kernel.escalation_work`).

Writes ``BENCH_faults.json`` at the repo root.

Run standalone (CI robustness gate)::

    PYTHONPATH=src python benchmarks/bench_faults.py --max-overhead 0.05
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

import numpy as np

from timing import best_of, percentiles

from repro.core import (
    AbsoluteResidual,
    BatchBicgstab,
    BatchCsr,
    EscalationSolver,
    health_counts,
    to_format,
)
from repro.gpu import escalation_work
from repro.utils import FaultInjector, FaultSpec

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
TOL = 1e-10


def build_problem(num_batch: int, num_rows: int, seed: int = 7):
    """Shifted 1-D Laplacians, ``tridiag(-1, 2 + shift_k, -1)``, as in the
    compaction benchmark — plus a manufactured solution."""
    rng = np.random.default_rng(seed)
    n = num_rows

    row_ptrs = np.zeros(n + 1, dtype=np.int64)
    cols = []
    for i in range(n):
        row_cols = [c for c in (i - 1, i, i + 1) if 0 <= c < n]
        cols.extend(row_cols)
        row_ptrs[i + 1] = row_ptrs[i] + len(row_cols)
    col_idxs = np.array(cols, dtype=np.int64)

    shifts = rng.uniform(0.05, 0.15, size=num_batch)
    values = np.zeros((num_batch, col_idxs.size))
    for i in range(n):
        for pos in range(row_ptrs[i], row_ptrs[i + 1]):
            values[:, pos] = (2.0 + shifts) if col_idxs[pos] == i else -1.0
    matrix = to_format(BatchCsr(n, row_ptrs, col_idxs, values), "ell")

    x_true = rng.standard_normal((num_batch, n))
    b = matrix.apply(x_true)
    return matrix, b


def make_plain():
    return BatchBicgstab(
        preconditioner="identity",
        criterion=AbsoluteResidual(TOL),
        max_iter=2000,
    )


def make_escalating():
    return EscalationSolver(
        make_plain(),
        preconditioner="identity",
        criterion=AbsoluteResidual(TOL),
        max_iter=2000,
    )


def bench_healthy_overhead(matrix, b, repeats):
    """Plain vs escalation solve of a healthy batch, in ``repeats`` pairs.

    Both solvers run back to back within each pair, and the pairs
    alternate which one goes first, so a load change on the machine hits
    both sides of a pair alike.
    """
    solvers = (make_plain(), make_escalating())
    # Warm-up: allocates the workspaces.
    results = [solver.solve(matrix, b) for solver in solvers]
    samples = ([], [])
    for pair in range(repeats):
        for side in ((0, 1) if pair % 2 == 0 else (1, 0)):
            t0 = time.perf_counter()
            results[side] = solvers[side].solve(matrix, b)
            samples[side].append(time.perf_counter() - t0)
    res_plain, res_esc = results
    samples_plain, samples_esc = samples
    ratios = np.divide(samples_esc, samples_plain)
    lo, p25, p75, hi = np.percentile(ratios, [0.0, 25.0, 75.0, 100.0])
    return {
        "time_plain_s": float(np.median(samples_plain)),
        "time_escalation_s": float(np.median(samples_esc)),
        "plain_stats": percentiles(samples_plain),
        "escalation_stats": percentiles(samples_esc),
        "overhead": float(np.median(ratios)) - 1.0,
        "pair_ratio": {"min": float(lo), "p25": float(p25),
                       "p75": float(p75), "max": float(hi)},
        "solutions_identical": bool(np.array_equal(res_plain.x, res_esc.x)),
        "iterations_identical": bool(
            np.array_equal(res_plain.iterations, res_esc.iterations)
        ),
        "rungs_climbed": len(solvers[1].last_report.rung_attempts),
        "all_converged": bool(res_esc.converged.all()),
    }


def bench_recovery(matrix, b, num_rows, repeats):
    injector = FaultInjector([
        FaultSpec("breakdown", system=1),
        FaultSpec("scale_system", system=3, factor=1e-170),
        FaultSpec("nan_guess", system=5, rows=(0, 1)),
    ])
    mc = injector.corrupt_matrix(matrix)
    bc = injector.corrupt_rhs(b)
    x0 = injector.corrupt_guess(np.zeros_like(b))

    esc = make_escalating()
    with np.errstate(all="ignore"):
        best, samples, res = best_of(lambda: esc.solve(mc, bc, x0=x0), repeats)

    report = esc.last_report
    true_res = np.linalg.norm(bc - mc.apply(res.x), axis=1)
    faulted = injector.systems
    billing = report.rung_billing()
    stored = matrix.values.shape[1] * matrix.values.shape[2]  # ELL incl. padding
    modelled = escalation_work(num_rows, 3 * num_rows - 2, "ell",
                               billing, stored_nnz=stored)
    return {
        "time_with_recovery_s": best,
        "recovery_stats": percentiles(samples),
        "injected_systems": faulted.tolist(),
        "health_before": health_counts(report.health_before),
        "health_after": health_counts(report.health_after),
        "num_rescued": report.num_rescued,
        "num_unrecovered": report.num_unrecovered,
        "rescued_by": report.rescued_by[faulted].tolist(),
        "max_true_residual_faulted": float(true_res[faulted].max()),
        "all_converged": bool(res.converged.all()),
        "rung_billing": [
            {"solver": s, "total_iterations": it, "num_systems": ns}
            for s, it, ns in billing
        ],
        "modelled_recovery_work": {
            "flops": modelled.flops,
            "total_bytes": modelled.total_bytes,
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--num-batch", type=int, default=192)
    ap.add_argument("--num-rows", type=int, default=992)
    ap.add_argument("--repeats", type=int, default=7,
                    help="interleaved plain/escalation pairs for the "
                    "overhead gate, and timed recovery solves")
    ap.add_argument("--max-overhead", type=float, default=0.05,
                    help="fail (exit 1) when the healthy-batch escalation "
                    "overhead exceeds this fraction (CI: 0.05)")
    ap.add_argument("--output", type=pathlib.Path,
                    default=REPO_ROOT / "BENCH_faults.json")
    args = ap.parse_args(argv)

    matrix, b = build_problem(args.num_batch, args.num_rows)

    healthy = bench_healthy_overhead(matrix, b, args.repeats)
    recovery = bench_recovery(matrix, b, args.num_rows, args.repeats)

    report = {
        "benchmark": "escalation_robustness",
        "config": {
            "num_batch": args.num_batch,
            "num_rows": args.num_rows,
            "format": "ell",
            "ladder": ["bicgstab", "gmres", "refinement", "banded-lu"],
            "tolerance": TOL,
            "repeats": args.repeats,
        },
        "healthy_overhead": healthy,
        "fault_recovery": recovery,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    print(f"healthy batch ({args.num_batch} systems, n={args.num_rows}):")
    print(f"  plain:      {healthy['time_plain_s'] * 1e3:8.2f} ms   "
          f"(medians of {args.repeats} interleaved pairs)")
    print(f"  escalation: {healthy['time_escalation_s'] * 1e3:8.2f} ms   "
          f"(overhead {healthy['overhead']:+.2%}, "
          f"bit-identical: {healthy['solutions_identical']})")
    spread = healthy["pair_ratio"]
    print("  per-pair overhead min/p25/p75/max: " + " / ".join(
        f"{spread[q] - 1.0:+.2%}" for q in ("min", "p25", "p75", "max")))
    print(f"fault recovery: {recovery['health_before']} -> "
          f"{recovery['health_after']}")
    print(f"  rescued {recovery['num_rescued']}, unrecovered "
          f"{recovery['num_unrecovered']}, max faulted residual "
          f"{recovery['max_true_residual_faulted']:.2e}")
    print(f"  report: {args.output}")

    if not healthy["solutions_identical"] or not healthy["iterations_identical"]:
        print("FAIL: escalation changed healthy-batch numerics", file=sys.stderr)
        return 1
    if healthy["rungs_climbed"] != 0:
        print("FAIL: ladder climbed on a healthy batch", file=sys.stderr)
        return 1
    if healthy["overhead"] > args.max_overhead:
        print(f"FAIL: healthy overhead {healthy['overhead']:.2%} above "
              f"{args.max_overhead:.2%}", file=sys.stderr)
        return 1
    if recovery["num_unrecovered"] != 0 or not recovery["all_converged"]:
        print("FAIL: escalation left injected systems unrecovered",
              file=sys.stderr)
        return 1
    if recovery["max_true_residual_faulted"] > 10 * TOL:
        print("FAIL: rescued systems do not meet the tolerance", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
