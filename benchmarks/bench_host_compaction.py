"""Host-side benchmark of active-batch compaction and the fused BLAS-1 path.

Reproduces the *late-Picard regime* of the warm-started proxy app: by the
last Picard iterations most systems' initial guesses already satisfy the
1e-10 tolerance and only a hard minority keeps iterating.  Without
compaction the host solver still executes every BLAS-1 statement over the
full batch; with compaction (``compact_threshold=0.5``) the stragglers are
gathered into a compact sub-batch.  Per-system iteration counts must be
**bit-identical** either way — this script asserts that, times both
configurations, and writes ``BENCH_host_kernels.json`` at the repo root.

Also micro-times the fused allocation-free BLAS-1 helpers of
:mod:`repro.core.blas` against the ``np.where`` copy idiom they replaced,
and records (ungated) the fixed host cost of one solver trip: the median
host microseconds per BiCGSTAB + Jacobi trip on 1 and 8 of the proxy app's
n = 992 electron systems in DIA, where the 1-system figure is almost all
per-trip bookkeeping and the step to 8 is per-system arithmetic.

Run standalone (CI smoke gate)::

    PYTHONPATH=src python benchmarks/bench_host_compaction.py --min-speedup 1.0

Exit status is non-zero when iteration counts differ or the compacted
solve is slower than ``--min-speedup`` times the uncompacted one.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

import numpy as np

from timing import best_of

from repro.core import (
    AbsoluteResidual,
    BatchBicgstab,
    BatchCsr,
    to_format,
)
from repro.core.blas import fused_update, masked_axpy
from repro.xgc import ELECTRON, CollisionProxyApp, ProxyAppConfig

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def build_problem(num_batch: int, num_rows: int, hard_fraction: float, seed: int = 7):
    """A batch of shifted 1-D Laplacians in the late-Picard state.

    Every system is ``tridiag(-1, 2 + shift_k, -1)``; per-system shifts
    spread the conditioning so the hard systems need a realistic number of
    BiCGSTAB iterations.  ``1 - hard_fraction`` of the systems get
    initial guesses already below the tolerance (the warm-start state of a
    late Picard iteration); the rest start from zero.
    """
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

    num_hard = max(1, int(round(hard_fraction * num_batch)))
    x0 = x_true + 1e-13 * rng.standard_normal((num_batch, n))
    x0[:num_hard] = 0.0  # the stragglers of the late-Picard batch
    return matrix, b, x0, num_hard


def make_solver(compact_threshold):
    return BatchBicgstab(
        preconditioner="jacobi",
        criterion=AbsoluteResidual(1e-10),
        max_iter=500,
        compact_threshold=compact_threshold,
    )


def bench_blas_micro(num_batch: int, num_rows: int, reps: int = 100):
    """Fused allocation-free helpers vs the np.where copy idiom."""
    rng = np.random.default_rng(3)
    x = rng.standard_normal((num_batch, num_rows))
    y = rng.standard_normal((num_batch, num_rows))
    v = rng.standard_normal((num_batch, num_rows))
    work = np.empty_like(x)
    alpha = rng.standard_normal(num_batch)
    beta = rng.standard_normal(num_batch)
    omega = rng.standard_normal(num_batch)
    mask = rng.random(num_batch) < 0.25

    def best_of(fn, trials=5):
        best = np.inf
        for _ in range(trials):
            t0 = time.perf_counter()
            for _ in range(reps):
                fn()
            best = min(best, (time.perf_counter() - t0) / reps)
        return best

    t_axpy_fused = best_of(lambda: masked_axpy(y, alpha, x, mask=mask, work=work))
    t_axpy_where = best_of(
        lambda: np.where(mask[:, None], y + alpha[:, None] * x, y)
    )
    t_fused_update = best_of(lambda: fused_update(y, x, beta, omega, v, work=work))
    t_update_where = best_of(
        lambda: x + beta[:, None] * (y - omega[:, None] * v)
    )
    return {
        "array_shape": [num_batch, num_rows],
        "masked_axpy_fused_s": t_axpy_fused,
        "masked_axpy_where_s": t_axpy_where,
        "masked_axpy_speedup": t_axpy_where / t_axpy_fused,
        "fused_update_s": t_fused_update,
        "update_where_s": t_update_where,
        "fused_update_speedup": t_update_where / t_fused_update,
    }


#: Batch sizes, solves per size and trips per solve of the trip-cost probe.
TRIP_SIZES = (1, 8)
TRIP_REPEATS = 25
TRIP_MAX_ITER = 40


def bench_trip_overhead():
    """Median host microseconds per BiCGSTAB + Jacobi trip at ``TRIP_SIZES``.

    The systems are the first electron systems of a 64-node proxy app
    (seed 2022) in DIA, started from ``x0 = b`` with an unreachable
    tolerance, so every solve runs exactly ``TRIP_MAX_ITER`` trips with no
    verify event and no compaction.  A sample is one solve's wall time
    over its trip count, so it includes the solve's set-up spread over
    those trips.
    """
    app = CollisionProxyApp(ProxyAppConfig(num_mesh_nodes=64, seed=2022))
    matrix, f = app.build_matrices()
    electrons = np.flatnonzero(app.masses == ELECTRON.mass)
    per_trip = {}
    for nb in TRIP_SIZES:
        sel = electrons[:nb]
        m, b = matrix.take_batch(sel), f[sel]
        solver = BatchBicgstab(
            preconditioner="jacobi",
            criterion=AbsoluteResidual(1e-300),
            max_iter=TRIP_MAX_ITER,
            compact_threshold=None,
        )
        _, samples, _ = best_of(lambda: solver.solve(m, b, x0=b), TRIP_REPEATS)
        trips = solver.last_op_stats.trips
        per_trip[str(nb)] = 1e6 * float(np.median(samples)) / trips
    return {
        "format": matrix.format_name,
        "num_rows": matrix.num_rows,
        "solver": "bicgstab",
        "preconditioner": "jacobi",
        "trips_per_solve": trips,
        "repeats": TRIP_REPEATS,
        "median_us_per_trip": per_trip,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--num-batch", type=int, default=240)
    ap.add_argument("--num-rows", type=int, default=992)
    ap.add_argument("--hard-fraction", type=float, default=0.25,
                    help="fraction of systems still iterating (default 0.25, "
                    "i.e. >= 75%% of the batch already converged)")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--min-speedup", type=float, default=1.0,
                    help="fail (exit 1) below this compacted-vs-uncompacted "
                    "speedup; CI uses 1.0, the paper-regime target is 1.5")
    ap.add_argument("--output", type=pathlib.Path,
                    default=REPO_ROOT / "BENCH_host_kernels.json")
    args = ap.parse_args(argv)

    matrix, b, x0, num_hard = build_problem(
        args.num_batch, args.num_rows, args.hard_fraction
    )

    solver_plain, solver_comp = make_solver(None), make_solver(0.5)
    t_plain, _, res_plain = best_of(
        lambda: solver_plain.solve(matrix, b, x0=x0), args.repeats
    )
    t_comp, _, res_comp = best_of(
        lambda: solver_comp.solve(matrix, b, x0=x0), args.repeats
    )

    iters_identical = bool(
        np.array_equal(res_plain.iterations, res_comp.iterations)
    )
    norms_identical = bool(
        np.array_equal(res_plain.residual_norms, res_comp.residual_norms)
    )
    x_identical = bool(np.array_equal(res_plain.x, res_comp.x))
    speedup = t_plain / t_comp

    report = {
        "benchmark": "host_compaction_late_picard",
        "config": {
            "num_batch": args.num_batch,
            "num_rows": args.num_rows,
            "hard_fraction": args.hard_fraction,
            "format": "ell",
            "solver": "bicgstab",
            "preconditioner": "jacobi",
            "tolerance": 1e-10,
            "repeats": args.repeats,
        },
        "compaction": {
            "time_uncompacted_s": t_plain,
            "time_compacted_s": t_comp,
            "speedup": speedup,
            "compaction_events": solver_comp.last_compaction_events,
            "hard_systems": num_hard,
            "max_iterations": int(res_plain.iterations.max()),
            "iterations_identical": iters_identical,
            "residual_norms_identical": norms_identical,
            "solutions_identical": x_identical,
            "all_converged": bool(res_plain.all_converged),
        },
        "blas": bench_blas_micro(args.num_batch, args.num_rows),
        "trip_overhead": bench_trip_overhead(),
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    print(f"late-Picard regime: {args.num_batch} systems, "
          f"{num_hard} still active ({args.hard_fraction:.0%})")
    print(f"  uncompacted: {t_plain * 1e3:8.2f} ms")
    print(f"  compacted:   {t_comp * 1e3:8.2f} ms   "
          f"({solver_comp.last_compaction_events} compaction events)")
    print(f"  speedup:     {speedup:8.2f}x   "
          f"(iterations identical: {iters_identical})")
    print(f"  blas micro:  masked_axpy "
          f"{report['blas']['masked_axpy_speedup']:.2f}x, fused_update "
          f"{report['blas']['fused_update_speedup']:.2f}x vs np.where")
    trip_us = report["trip_overhead"]["median_us_per_trip"]
    print("  trip cost:   " + ", ".join(
        f"{us:.0f} us at {nb}" for nb, us in trip_us.items()
    ) + " systems (BiCGSTAB + Jacobi trip, DIA n = 992, median)")
    print(f"  report: {args.output}")

    if not (iters_identical and norms_identical):
        print("FAIL: compaction changed per-system numerics", file=sys.stderr)
        return 1
    if speedup < args.min_speedup:
        print(f"FAIL: speedup {speedup:.2f}x below required "
              f"{args.min_speedup:.2f}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
