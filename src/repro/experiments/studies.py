"""Generators for the studies the paper's text relies on.

Besides its figures and tables the paper argues from four studies it
reports only in prose: why not dense or monolithic block-diagonal solvers
(Section II), how batched tridiagonal kernels compare (Section III), the
shared-memory placement (Section IV-D) and automatic tuning, and why the
inner tolerance is 1e-10 (Section V).  Each generator here regenerates one
of them on the same measured solves the figures use.
"""

from __future__ import annotations

import numpy as np

from ..core import (
    AbsoluteResidual,
    BatchBicgstab,
    BatchCsr,
    BatchDenseLu,
    BatchThomas,
    BatchTridiag,
    MonolithicBlockSolver,
    assemble_block_diagonal,
    plan_storage,
    to_format,
)
from ..core.solvers.schedule import solver_schedule
from ..gpu import (
    GPUS,
    SKYLAKE_NODE,
    V100,
    compute_occupancy,
    estimate_cpu_dgbsv,
    estimate_dense_lu,
    estimate_iterative_solve,
    estimate_memory,
    iteration_work,
    schedule_blocks,
    tune_for_matrix,
)
from ..xgc import CollisionProxyApp, PicardOptions, ProxyAppConfig, VelocityGrid
from .common import (
    BATCH_SIZES,
    KL,
    KU,
    N_ROWS,
    STORED_ELL,
    ExperimentResult,
    measured_zero_guess,
    paper_app,
    tile_iterations,
)

__all__ = [
    "motivation_dense",
    "ablation_blockdiag",
    "related_tridiag",
    "ablation_shmem",
    "ablation_tuning",
    "tolerance_study",
]

KIB = 1024

#: Per-block shared-memory budgets swept by :func:`ablation_shmem`, in
#: bytes; each GPU's exact policy budget is added to these.
SHMEM_BUDGETS = tuple(k * KIB for k in (0, 8, 16, 24, 32, 40, 48, 56, 64, 80, 96))

#: Batch size at which the shared-memory and tuning ablations are priced.
ABLATION_BATCH = 960

#: Inner linear tolerances swept by :func:`tolerance_study`.
TOLERANCES = (1e-4, 1e-6, 1e-8, 1e-10, 1e-12)


def _bicgstab() -> BatchBicgstab:
    return BatchBicgstab(
        preconditioner="jacobi", criterion=AbsoluteResidual(1e-10),
        max_iter=500,
    )


def motivation_dense() -> ExperimentResult:
    """§II — batched dense LU on the GPU vs banded dgbsv on the CPU."""
    app, solve = measured_zero_guess()
    rows = []
    lines = [
        "Motivation: batched dense LU (V100) vs banded dgbsv (Skylake) vs "
        "batched sparse iterative (V100 ELL)",
        f"{'batch':>6} {'dense-LU ms':>12} {'dgbsv ms':>10} "
        f"{'sparse-it ms':>13}",
    ]
    for nb in BATCH_SIZES:
        t_dense = estimate_dense_lu(V100, N_ROWS, nb).total_time_s
        t_cpu = estimate_cpu_dgbsv(SKYLAKE_NODE, N_ROWS, KL, KU, nb).total_time_s
        t_sparse = estimate_iterative_solve(
            V100, "ell", N_ROWS, app.stencil.nnz,
            tile_iterations(solve.iterations, nb), stored_nnz=STORED_ELL,
        ).total_time_s
        rows.append((nb, t_dense, t_cpu, t_sparse))
        lines.append(
            f"{nb:>6} {t_dense * 1e3:12.2f} {t_cpu * 1e3:10.2f} "
            f"{t_sparse * 1e3:13.3f}"
        )
    # The dense route loses on cost, not on correctness: it solves real
    # collision matrices (on a 10x9 velocity grid) exactly.
    small = CollisionProxyApp(ProxyAppConfig(
        num_mesh_nodes=1, grid=VelocityGrid(nv_par=10, nv_perp=9),
    ))
    lu = BatchDenseLu().solve(*small.build_matrices())
    residual = float(lu.residual_norms.max())
    lines.append(
        f"\ndense LU on {lu.x.shape[0]} collision systems of n = "
        f"{lu.x.shape[1]}: residual {residual:.2e}"
        "\n-> the GPU dense route loses to the CPU banded solver at every"
        "\n   batch size; only the batched sparse iterative solver"
        "\n   justifies the port."
    )
    return ExperimentResult(
        name="motivation_dense",
        description="dense GPU LU vs banded CPU dgbsv",
        data={"rows": rows, "dense_lu_converged": lu.all_converged,
              "dense_lu_residual": residual},
        text="\n".join(lines),
    )


def ablation_blockdiag() -> ExperimentResult:
    """§II — the monolithic block-diagonal alternative to batching."""
    matrix, f = paper_app().build_matrices()
    csr = to_format(matrix, "csr")
    batched = _bicgstab().solve(csr, f)
    mono = MonolithicBlockSolver(tol=1e-10, max_iter=500)
    coupled = mono.solve(csr, f)
    assembled = assemble_block_diagonal(csr)
    # Solving through the physically assembled system works, just
    # wastefully; four systems keep it at (4 * 992)^2.
    head = BatchCsr(csr.num_cols, csr.row_ptrs, csr.col_idxs, csr.values[:4])
    direct = mono.solve_assembled(head, f[:4])
    shared, duplicated = csr.col_idxs.nbytes, assembled.col_idxs.nbytes
    text = "\n".join([
        "Ablation: batched solver vs monolithic block-diagonal system",
        f"  batched   iterations: per-system {batched.iterations.tolist()}",
        f"  monolithic iterations: {int(coupled.iterations[0])} for every "
        "block (coupled to the worst system)",
        f"  total iteration work: batched {batched.total_iterations}, "
        f"monolithic {coupled.total_iterations} "
        f"({coupled.total_iterations / batched.total_iterations:.2f}x)",
        f"  pattern metadata: shared {shared / 1e3:.1f} KB vs duplicated "
        f"{duplicated / 1e3:.1f} KB ({duplicated / shared:.0f}x)",
        f"  assembled 4-system solve: {int(direct.iterations[0])} "
        f"iterations, converged {direct.all_converged}",
    ])
    return ExperimentResult(
        name="ablation_blockdiag",
        description="batched vs monolithic block-diagonal solve",
        data={
            "num_batch": csr.num_batch,
            "batched_total_iterations": batched.total_iterations,
            "monolithic_total_iterations": coupled.total_iterations,
            "shared_index_bytes": shared,
            "assembled_index_bytes": duplicated,
            "assembled_converged": direct.all_converged,
            "assembled_x": direct.x,
            "batched_x": batched.x[:4],
        },
        text=text,
    )


def related_tridiag() -> ExperimentResult:
    """§III — batched Thomas vs batched BiCGSTAB on tridiagonal systems."""
    nb, n = 16, N_ROWS
    rng = np.random.default_rng(3)
    d = 4.0 + rng.random((nb, n))
    dl = -1.0 + 0.2 * rng.random((nb, n - 1))
    du = -1.0 + 0.2 * rng.random((nb, n - 1))
    tri = BatchTridiag(dl, d, du)
    csr = to_format(tri, "csr")
    x_true = np.random.default_rng(4).standard_normal((nb, n))
    b = csr.apply(x_true)
    thomas = BatchThomas().solve(tri, b)
    bicg = _bicgstab().solve(csr, b)
    text = "\n".join([
        "Related work: batched Thomas vs batched BiCGSTAB on tridiagonal "
        "systems",
        f"  batch: {nb} systems of n = {n}",
        f"  Thomas:   exact in one sweep, residual "
        f"{thomas.residual_norms.max():.2e}, "
        f"storage {tri.storage_bytes() / 1e3:.0f} KB (no index metadata)",
        f"  BiCGSTAB: {bicg.iterations.min()}-{bicg.iterations.max()} "
        f"iterations to 1e-10, residual {bicg.residual_norms.max():.2e}, "
        f"storage {csr.storage_bytes() / 1e3:.0f} KB",
        "",
        "  -> on true tridiagonal batches the specialised direct kernel",
        "     wins outright; its limitation is scope, not speed: it cannot",
        "     express the XGC 9-point matrices, which is why the paper",
        "     needed general batched sparse solvers.",
    ])
    return ExperimentResult(
        name="related_tridiag",
        description="batched Thomas vs batched BiCGSTAB",
        data={
            "x_true": x_true,
            "thomas_x": thomas.x,
            "thomas_residual": float(thomas.residual_norms.max()),
            "thomas_storage_bytes": tri.storage_bytes(),
            "bicgstab_converged": bicg.all_converged,
            "csr_storage_bytes": csr.storage_bytes(),
        },
        text=text,
    )


def ablation_shmem() -> ExperimentResult:
    """§IV-D — sweep the per-block shared-memory budget on every GPU.

    Reports how many BiCGSTAB vectors the planner places in shared memory
    and the modelled solve time at each budget.  Each GPU's exact policy
    budget is one of the swept points.
    """
    app, solve = measured_zero_guess()
    its = tile_iterations(solve.iterations, ABLATION_BATCH)
    schedule = solver_schedule("bicgstab")
    budgets = sorted(
        set(SHMEM_BUDGETS) | {hw.shared_budget_per_block() for hw in GPUS}
    )
    sweep = {hw.name: {} for hw in GPUS}
    lines = [f"{'budget KiB':>10} " + " ".join(
        f"{hw.name + ' n_sh/t_ms':>16}" for hw in GPUS
    )]
    for budget in budgets:
        cfg = plan_storage(solver_schedule("bicgstab").vectors, N_ROWS, budget)
        work = iteration_work(
            schedule, N_ROWS, app.stencil.nnz, "ell", cfg,
            stored_nnz=STORED_ELL,
        )
        row = [f"{budget / KIB:>10g}"]
        for hw in GPUS:
            if budget > hw.max_shared_per_block_kib * KIB:
                row.append(f"{'-':>16}")
                continue
            # Price only the memory-traffic leg of the solve at this
            # budget, so the sweep isolates what vector placement changes.
            occ = compute_occupancy(hw, max(cfg.shared_bytes_used, 1), N_ROWS)
            mem = estimate_memory(
                hw, work,
                shared_bytes_per_block=cfg.shared_bytes_used,
                blocks_per_cu=occ.blocks_per_cu,
                active_systems=min(its.size, occ.total_slots),
                reuse_passes=max(float(its.mean()), 1.0),
                unique_matrix_bytes=STORED_ELL * 8,
                unique_index_bytes=STORED_ELL * 4,
                unique_rhs_bytes=N_ROWS * 8,
            )
            t = schedule_blocks(
                hw, occ, its * (mem.memory_time(hw) * occ.blocks_per_cu)
            )
            sweep[hw.name][budget] = (cfg.num_shared, t)
            row.append(f"{cfg.num_shared:>7}/{t * 1e3:8.3f}")
        lines.append(" ".join(row))
    policy = {
        hw.name: sweep[hw.name][hw.shared_budget_per_block()] for hw in GPUS
    }
    zero_budget = {name: points[0][1] for name, points in sweep.items()}
    lines.append(
        "\npolicy choices: "
        + ", ".join(
            f"{name}: {n_sh} vectors, {t * 1e3:.3f} ms"
            for name, (n_sh, t) in policy.items()
        )
        + "\n\nNote: the traffic model also identifies a 1-block-per-CU,"
        "\nall-vectors-shared regime whose small active set becomes"
        "\nL2-resident; the paper's production policy targets 2 resident"
        "\nblocks for latency hiding, which the analytic model only"
        "\npartially captures.  The directional claim (shared-memory"
        "\nplacement of the solver vectors pays) holds throughout."
    )
    return ExperimentResult(
        name="ablation_shmem",
        description="shared-memory budget sweep",
        data={"sweep": sweep, "policy": policy, "zero_budget": zero_budget},
        text="Ablation: shared-memory budget sweep (vectors in shared / "
        "modelled ms)\n" + "\n".join(lines),
    )


def ablation_tuning() -> ExperimentResult:
    """Contribution #3 — the automatic tuner's decisions for the XGC matrices.

    Prices each decision on the model against every format the tuner
    could have picked.
    """
    app, solve = measured_zero_guess()
    matrix, _ = app.build_matrices()
    its = tile_iterations(solve.iterations, ABLATION_BATCH)
    decisions, times = {}, {}
    lines = ["Ablation: automatic tuning for the XGC matrices"]
    for hw in GPUS:
        d = tune_for_matrix(hw, matrix)
        # DIA and ELL store the same padded entry count on this stencil.
        t = {
            fmt: estimate_iterative_solve(
                hw, fmt, N_ROWS, app.stencil.nnz, its,
                stored_nnz=None if fmt == "csr" else STORED_ELL,
            ).total_time_s
            for fmt in ("csr", "ell", "dia")
        }
        decisions[hw.name], times[hw.name] = d, t
        lines.append(
            f"  {hw.name}: fmt={d.fmt} threads={d.threads_per_block} "
            f"shared={d.storage.num_shared}/{d.storage.num_vectors} "
            f"{'fused' if d.fused_kernel else 'component'}"
        )
        lines.append("    modelled " + ", ".join(
            f"{fmt} {s * 1e3:.3f} ms" for fmt, s in t.items()
        ))
        for key, why in d.rationale.items():
            lines.append(f"    [{key}] {why}")
    return ExperimentResult(
        name="ablation_tuning",
        description="automatic tuning decisions",
        data={"decisions": decisions, "times": times},
        text="\n".join(lines),
    )


def tolerance_study() -> ExperimentResult:
    """§V — inner linear tolerance vs Picard quality.

    Runs the real Picard step at each tolerance with the conservation fix
    off, so the raw solver quality is visible, and compares every step to
    the tightest one.
    """
    steps, f0 = {}, None
    for tol in TOLERANCES:
        app = CollisionProxyApp(ProxyAppConfig(
            num_mesh_nodes=2,
            picard=PicardOptions(linear_tol=tol, conservation_fix=False),
        ))
        if f0 is None:
            f0 = app.initial_state()
        steps[tol] = app.stepper.step(f0, app.config.dt)
    ref = steps[TOLERANCES[-1]].f_new
    rows = {}
    lines = [
        "Tolerance study: inner linear tolerance vs Picard quality "
        "(conservation fix off)",
        f"{'tol':>8} {'total iters':>12} {'last update':>12} "
        f"{'density drift':>14} {'vs 1e-12':>10}",
    ]
    for tol, step in steps.items():
        rows[tol] = {
            "iterations": int(step.linear_iterations.sum()),
            "last_update": float(step.picard_updates[-1]),
            "density_drift": float(step.conservation.density_drift.max()),
            "error": float(np.abs(step.f_new - ref).max() / np.abs(ref).max()),
        }
        r = rows[tol]
        lines.append(
            f"{tol:8.0e} {r['iterations']:>12} {r['last_update']:12.2e} "
            f"{r['density_drift']:14.2e} {r['error']:10.2e}"
        )
    lines.append(
        "\n-> loose tolerances stall the Picard updates and visibly bias"
        "\n   the step; ~1e-10 is the loosest setting indistinguishable"
        "\n   from the tight reference, at a fraction of 1e-12's cost."
    )
    return ExperimentResult(
        name="tolerance_study",
        description="inner tolerance vs Picard quality",
        data={"rows": rows},
        text="\n".join(lines),
    )
