"""Generators for the paper's tables."""

from __future__ import annotations

from ..gpu import SKYLAKE_NODE, TABLE1_GPUS, collect_metrics, metrics_table
from .common import (
    N_ROWS,
    STORED_ELL,
    ExperimentResult,
    measured_picard,
    measured_zero_guess,
    tile_iterations,
)

__all__ = ["table1", "table2", "table3"]


def table1() -> ExperimentResult:
    """Table I — hardware characteristics (catalog transcription)."""
    lines = [
        f"{'Architecture':<22} {'FP64 TF':>8} {'BW GB/s':>8} "
        f"{'(L1+sh)/CU KB':>14} {'L2 MB':>6} {'CUs':>5}"
    ]
    rows = {}
    for hw in TABLE1_GPUS:
        rows[hw.name] = {
            "tflops": hw.peak_fp64_tflops, "bw": hw.mem_bw_gbs,
            "l1_kib": hw.l1_shared_per_cu_kib, "l2_mib": hw.l2_mib,
            "cus": hw.num_cus,
        }
        lines.append(
            f"{hw.name:<22} {hw.peak_fp64_tflops:8.1f} {hw.mem_bw_gbs:8.0f} "
            f"{hw.l1_shared_per_cu_kib:>14} {hw.l2_mib:6.0f} {hw.num_cus:>5}"
        )
    cpu = SKYLAKE_NODE
    lines.append(
        f"{'Xeon Gold 6148 (1x)':<22} "
        f"{cpu.peak_fp64_tflops_per_socket:8.1f} "
        f"{cpu.mem_bw_gbs_per_socket:8.0f} {'64':>14} {'20':>6} "
        f"{cpu.cores_per_socket:>5}"
    )
    return ExperimentResult(
        name="table1", description="hardware characteristics",
        data=rows, text="Table I: theoretical performance numbers\n"
        + "\n".join(lines),
    )


def table2(num_batch: int = 960) -> ExperimentResult:
    """Table II — modelled profiler metrics per platform and format."""
    app, solve = measured_zero_guess()
    its = tile_iterations(solve.iterations, num_batch)
    rows = []
    for hw in TABLE1_GPUS:
        for fmt, stored in (("csr", None), ("ell", STORED_ELL)):
            rows.append(
                collect_metrics(
                    hw, fmt, N_ROWS, app.stencil.nnz, its,
                    stored_nnz=stored,
                    report_l1=hw.name != "MI100",
                )
            )
    return ExperimentResult(
        name="table2", description="profiler metrics",
        data={"rows": rows},
        text="Table II: modelled profiler metrics\n" + metrics_table(rows),
    )


def table3() -> ExperimentResult:
    """Table III — linear iterations per Picard iteration (warm start).

    The zero-guess control runs alongside: without the warm start the
    electron counts stay flat across the Picard loop.
    """
    app, step = measured_picard(warm_start=True)
    _, zero = measured_picard(warm_start=False)
    ns = len(app.config.species)
    e = step.linear_iterations[:, 0::ns].mean(axis=1)
    ion = step.linear_iterations[:, 1::ns].mean(axis=1)
    e_zero = zero.linear_iterations[:, 0::ns].mean(axis=1)
    lines = [
        "Table III: linear iterations per Picard iteration "
        "(warm start, ELL, tol 1e-10)",
        f"{'Picard':>7} {'electron':>9} {'ion':>6} {'e- zero guess':>14}"
        "    (paper: e 30,28,20,16,12 / ion 5,4,3,2,2)",
    ]
    for k in range(len(e)):
        lines.append(f"{k:>7} {e[k]:9.1f} {ion[k]:6.1f} {e_zero[k]:14.1f}")
    return ExperimentResult(
        name="table3", description="Picard-loop iteration counts",
        data={"electron": e, "ion": ion, "electron_zero_guess": e_zero,
              "conservation": step.conservation.worst()},
        text="\n".join(lines),
    )
