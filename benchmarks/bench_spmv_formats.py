"""Host-side SpMV format sweep on the XGC collision pattern.

Times the batched SpMV of every matrix format (CSR / ELL / DIA / dense) on
the paper's n = 992 collision stencil over a range of batch sizes, checks
that every format's products agree with CSR to tight tolerance, verifies
that a full Picard step with ``matrix_format="dia"`` reproduces the exact
per-system linear iteration counts and the bit-exact final state of
``"ell"`` (the ground for stepping in DIA by default), and writes
``BENCH_spmv_formats.json`` at the repo root (next to
``BENCH_host_kernels.json``) so the perf trajectory is tracked.

The gather-free DIA kernel is the point of the sweep: each of the
stencil's 9 constant diagonals contributes one contiguous shifted-slice
multiply-add — no column-index loads, no gathers — so it should be the
fastest sparse format at every batch size.

Run standalone (CI parity + perf gate)::

    PYTHONPATH=src python benchmarks/bench_spmv_formats.py --min-dia-speedup 1.0

Exit status is non-zero when any format diverges from CSR beyond
``--parity-tol``, when DIA is not the fastest sparse format, when ELL is
not faster than CSR (the host echo of the paper's Fig. 7), when the
DIA-vs-ELL speedup at the largest batch falls below ``--min-dia-speedup``,
or when the DIA Picard step's iteration counts or final state differ from
ELL's.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

import numpy as np

from timing import best_of

from repro.core import to_format
from repro.xgc import CollisionProxyApp, PicardOptions, ProxyAppConfig

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Dense needs n^2 values per system (7.9 MB at n=992); cap its sweep.
DENSE_MAX_BATCH = 16


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


def parity_error(matrix, x, ref: np.ndarray) -> float:
    """Scaled max deviation of ``matrix @ x`` from the CSR reference."""
    y = matrix.apply(x)
    scale = max(float(np.abs(ref).max()), 1.0)
    return float(np.abs(y - ref).max()) / scale


def sweep_batch(num_batch: int, repeats: int) -> dict:
    """Time every format at one batch size; returns the report entry."""
    csr, f = build_batch(num_batch)
    mats = {"csr": csr, "ell": to_format(csr, "ell"), "dia": to_format(csr, "dia")}
    if num_batch <= DENSE_MAX_BATCH:
        mats["dense"] = to_format(csr, "dense")

    ref = csr.apply(f)
    entry = {
        "num_batch": num_batch,
        "num_rows": csr.num_rows,
        "nnz_per_system": csr.nnz_per_system,
        "dia_num_diags": mats["dia"].num_diags,
        "formats": {},
    }
    out = np.empty_like(f)
    for name, m in mats.items():
        entry["formats"][name] = {
            "time_s": best_of(lambda: m.apply(f, out=out), repeats, inner=5)[0],
            "parity_vs_csr": parity_error(m, f, ref),
            "storage_bytes": m.storage_bytes(),
        }
    t = entry["formats"]
    entry["dia_speedup_vs_ell"] = t["ell"]["time_s"] / t["dia"]["time_s"]
    entry["dia_speedup_vs_csr"] = t["csr"]["time_s"] / t["dia"]["time_s"]
    return entry


def picard_iteration_parity(num_mesh_nodes: int = 4, num_steps: int = 1) -> dict:
    """Per-system linear iteration counts and the final state of a Picard
    run, ELL vs DIA."""
    iterations, f_final = {}, {}
    for fmt in ("ell", "dia"):
        app = CollisionProxyApp(ProxyAppConfig(
            num_mesh_nodes=num_mesh_nodes,
            picard=PicardOptions(matrix_format=fmt),
        ))
        result = app.run(num_steps)
        iterations[fmt] = np.concatenate(
            [step.linear_iterations.ravel() for step in result.step_results]
        )
        f_final[fmt] = result.f_final.tobytes()
    return {
        "num_mesh_nodes": num_mesh_nodes,
        "num_steps": num_steps,
        "total_linear_iterations_ell": int(iterations["ell"].sum()),
        "total_linear_iterations_dia": int(iterations["dia"].sum()),
        "iterations_identical": bool(np.array_equal(iterations["ell"], iterations["dia"])),
        "f_final_identical": f_final["ell"] == f_final["dia"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--batch-sizes", type=str, default="16,120,480,1000,1920",
                    help="comma-separated batch sizes (default includes one "
                    "<= %d so dense is swept too)" % DENSE_MAX_BATCH)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--parity-tol", type=float, default=1e-13,
                    help="max scaled deviation of any format from CSR")
    ap.add_argument("--min-dia-speedup", type=float, default=1.0,
                    help="fail (exit 1) below this DIA-vs-ELL speedup at the "
                    "largest batch; CI uses 1.0, the acceptance target is 2.0")
    ap.add_argument("--output", type=pathlib.Path,
                    default=REPO_ROOT / "BENCH_spmv_formats.json")
    args = ap.parse_args(argv)

    batch_sizes = sorted(int(b) for b in args.batch_sizes.split(","))
    sweeps = [sweep_batch(nb, args.repeats) for nb in batch_sizes]
    picard = picard_iteration_parity()

    report = {
        "benchmark": "spmv_formats_xgc_stencil",
        "config": {
            "batch_sizes": batch_sizes,
            "repeats": args.repeats,
            "parity_tol": args.parity_tol,
            "dense_max_batch": DENSE_MAX_BATCH,
        },
        "sweeps": sweeps,
        "picard": picard,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    print(f"SpMV format sweep, n={sweeps[0]['num_rows']} XGC stencil "
          f"({sweeps[0]['dia_num_diags']} diagonals, "
          f"{sweeps[0]['nnz_per_system']} nnz):")
    header = f"  {'batch':>6} " + "".join(
        f"{f:>12}" for f in ("csr", "ell", "dia", "dense")
    ) + f"{'dia/ell':>10}"
    print(header + "  (ms per SpMV)")
    for s in sweeps:
        row = f"  {s['num_batch']:>6} "
        for fmt in ("csr", "ell", "dia", "dense"):
            cell = s["formats"].get(fmt)
            row += f"{cell['time_s'] * 1e3:12.3f}" if cell else f"{'-':>12}"
        row += f"{s['dia_speedup_vs_ell']:9.2f}x"
        print(row)
    print(f"  picard iterations dia==ell: {picard['iterations_identical']} "
          f"({picard['total_linear_iterations_ell']} total), "
          f"f_final bit-identical: {picard['f_final_identical']}")
    print(f"  report: {args.output}")

    failures = []
    for s in sweeps:
        for fmt, cell in s["formats"].items():
            if cell["parity_vs_csr"] > args.parity_tol:
                failures.append(
                    f"{fmt} diverges from csr at batch {s['num_batch']}: "
                    f"{cell['parity_vs_csr']:.2e} > {args.parity_tol:.0e}"
                )
        t = s["formats"]
        if t["dia"]["time_s"] > min(t["csr"]["time_s"], t["ell"]["time_s"]):
            failures.append(
                f"dia is not the fastest sparse format at batch "
                f"{s['num_batch']}"
            )
        if t["ell"]["time_s"] >= t["csr"]["time_s"]:
            failures.append(
                f"ell is not faster than csr at batch {s['num_batch']}"
            )
    if sweeps[-1]["dia_speedup_vs_ell"] < args.min_dia_speedup:
        failures.append(
            f"dia speedup {sweeps[-1]['dia_speedup_vs_ell']:.2f}x vs ell at "
            f"batch {sweeps[-1]['num_batch']} below required "
            f"{args.min_dia_speedup:.2f}x"
        )
    if not picard["iterations_identical"]:
        failures.append("picard iteration counts differ between dia and ell")
    if not picard["f_final_identical"]:
        failures.append("picard f_final differs between dia and ell")

    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
