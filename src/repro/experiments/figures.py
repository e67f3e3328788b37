"""Generators for the paper's figures (data series + rendered panels)."""

from __future__ import annotations


from ..core.solvers.schedule import iterative_solver_names
from ..gpu import (
    A100,
    SKYLAKE_NODE,
    TABLE1_GPUS,
    V100,
    estimate_cpu_dgbsv,
    estimate_direct_qr,
    estimate_iterative_solve,
    estimate_spmv,
    variant_estimates,
)
from ..xgc import simulate_picard_timeline
from .common import (
    BATCH_SIZES,
    KL,
    KU,
    N_ROWS,
    STORED_ELL,
    ExperimentResult,
    measured_picard,
    measured_variant_iterations,
    measured_zero_guess,
    paper_app,
    species_spectra,
    tile_iterations,
)

__all__ = ["fig1", "fig2", "fig4", "fig6", "fig7", "fig8", "fig9"]


def fig1(num_systems: int = 1000) -> ExperimentResult:
    """Fig. 1 — Picard-loop execution timeline, CPU vs GPU solver."""
    cpu_rep = simulate_picard_timeline(num_systems, solver="cpu")
    gpu_rep = simulate_picard_timeline(num_systems, solver="gpu")
    s = cpu_rep.summary()
    text = (
        "Fig 1: one Picard loop of the proxy app\n"
        f"  CPU-solver config: total {s['total_ms']:.1f} ms | "
        f"CPU {s['cpu_percent']:.1f}% | dgbsv/CPU "
        f"{s['solve_percent_of_cpu']:.1f}% | transfer "
        f"{s['transfer_percent']:.1f}%\n"
        f"  GPU-solver config: total {1e3 * gpu_rep.total_time:.1f} ms "
        f"(no CPU lanes, no transfers)\n"
        f"  gain from moving the solver: "
        f"{cpu_rep.total_time / gpu_rep.total_time:.2f}x"
    )
    return ExperimentResult(
        name="fig1",
        description="Picard-loop execution timeline",
        data={"cpu": s, "gpu_total_ms": 1e3 * gpu_rep.total_time,
              "segments": cpu_rep.segments},
        text=text,
    )


def fig2(num_mesh_nodes: int = 2) -> ExperimentResult:
    """Fig. 2 — eigenvalue spectra of the electron and ion matrices."""
    data = {"condition_number": {}}
    lines = ["Fig 2: eigenvalue spectra of the species matrices"]
    for species, (s, kappa) in species_spectra(num_mesh_nodes).items():
        data[species] = s
        data["condition_number"][species] = kappa
        lines.append(
            f"  {species:>9}: Re in [{s.real_min:8.4f}, {s.real_max:9.3f}]"
            f"  |Im| <= {s.imag_max_abs:7.4f}"
            f"  Re-spread {s.real_spread:8.2f}x"
            f"  cond {kappa:7.2f}"
        )
    return ExperimentResult(
        name="fig2",
        description="species eigenvalue spectra",
        data=data,
        text="\n".join(lines),
    )


def fig4(num_mesh_nodes: int = 2) -> ExperimentResult:
    """Fig. 4 (and Fig. 3) — sparsity pattern and format storage."""
    import collections

    from ..core import to_format

    app = paper_app(num_mesh_nodes)
    ell, _ = app.build_matrices()
    csr = to_format(ell, "csr")
    dense = to_format(csr, "dense")
    hist = collections.Counter(app.stencil.nnz_per_row().tolist())
    text = "\n".join([
        "Fig 4: sparsity pattern of one batch entry",
        f"  rows {app.stencil.num_rows}, nnz/row "
        + ", ".join(f"{c}x{k}" for k, c in sorted(hist.items())),
        f"  bandwidth kl = ku = {app.config.grid.nv_par + 1}",
        f"Fig 3 storage (num_batch = {csr.num_batch}): dense "
        f"{dense.storage_bytes() / 1e6:.2f} MB, CSR "
        f"{csr.storage_bytes() / 1e6:.2f} MB, ELL "
        f"{ell.storage_bytes() / 1e6:.2f} MB "
        f"({100 * ell.padding_fraction():.1f}% padding)",
    ])
    return ExperimentResult(
        name="fig4",
        description="sparsity pattern and format storage",
        data={"nnz_histogram": dict(hist),
              "storage_bytes": {"dense": dense.storage_bytes(),
                                "csr": csr.storage_bytes(),
                                "ell": ell.storage_bytes()}},
        text=text,
    )


def fig6(gpus: tuple = TABLE1_GPUS) -> ExperimentResult:
    """Fig. 6 — solve time vs batch size, all solvers/formats/platforms.

    ``gpus`` defaults to the paper's Table I targets so the reproduction
    artifact stays pinned; pass :data:`repro.gpu.GPUS` (or any subset) to
    regenerate the crossover study on the extended hardware zoo.
    """
    app, solve = measured_zero_guess()
    nnz = app.stencil.nnz
    rows: dict[int, dict[str, float]] = {}
    for nb in BATCH_SIZES:
        its = tile_iterations(solve.iterations, nb)
        entry: dict[str, float] = {}
        for hw in gpus:
            for fmt, stored in (("csr", None), ("ell", STORED_ELL)):
                entry[f"{hw.name}-{fmt}"] = estimate_iterative_solve(
                    hw, fmt, N_ROWS, nnz, its, stored_nnz=stored
                ).total_time_s
        entry["V100-qr"] = estimate_direct_qr(
            V100, N_ROWS, KL, KU, nb
        ).total_time_s
        entry["Skylake-dgbsv"] = estimate_cpu_dgbsv(
            SKYLAKE_NODE, N_ROWS, KL, KU, nb
        ).total_time_s
        rows[nb] = entry

    # Per-solver comparison at a fixed batch: the same measured iteration
    # vector charged through each solver's declared operation schedule
    # (A100, ELL — the paper's fastest iterative configuration).  This is
    # the model-side view of why production chose BiCGSTAB.
    nb_fix = 960
    its_fix = tile_iterations(solve.iterations, nb_fix)
    per_solver = {
        s: estimate_iterative_solve(
            A100, "ell", N_ROWS, nnz, its_fix,
            stored_nnz=STORED_ELL, solver=s,
        ).total_time_s
        for s in iterative_solver_names()
    }

    # Pipelined-crossover inset: classic vs pipelined, each charged its
    # OWN measured iteration counts (pipelined CG's residual replacement
    # and pipelined BiCGSTAB's forgone ||s|| early exit may shift them),
    # across batch sizes and GPUs on the ELL format.  The reduction-round
    # latency saved by the pipelined variants is constant per kernel trip
    # while their per-system extras scale with the batch, so each series
    # pair crosses at some batch size; report it per GPU — measured
    # inside the sweep, extrapolated from the linear tail otherwise.
    variant_its = measured_variant_iterations()
    families = {
        "cg": ("cg", "pipelined_cg"),
        "bicgstab": ("bicgstab", "pipelined_bicgstab"),
    }
    pipelined: dict[str, dict] = {}
    crossover_lines = []
    for family, (classic, pipe) in families.items():
        for hw in gpus:
            # variant_estimates is the single pricing path shared with
            # choose_solver_variant and the autotuning gym, so this inset
            # plots exactly the numbers the tuner acts on.
            series = {classic: [], pipe: []}
            for nb in BATCH_SIZES:
                ests = variant_estimates(
                    hw, "ell", N_ROWS, nnz,
                    {name: tile_iterations(variant_its[name], nb)
                     for name in (classic, pipe)},
                    stored_nnz=STORED_ELL,
                )
                for name in (classic, pipe):
                    series[name].append(ests[name].total_time_s)
            gap = [c - p for c, p in zip(series[classic], series[pipe])]
            inside = [nb for nb, g in zip(BATCH_SIZES, gap) if g <= 0.0]
            if inside:
                where = f"classic from batch {inside[0]}"
                cross = float(inside[0])
            else:
                # Both series are affine in the batch size beyond slot
                # saturation: extrapolate from the last two sweep points.
                n1, n2 = BATCH_SIZES[-2], BATCH_SIZES[-1]
                slope = (gap[-1] - gap[-2]) / (n2 - n1)
                if slope >= 0.0:
                    where = "pipelined at every batch size"
                    cross = float("inf")
                else:
                    cross = n2 + gap[-1] / -slope
                    where = f"classic from batch ~{cross:.0f} (extrapolated)"
            pipelined[f"{family}-{hw.name}"] = {
                "batch_sizes": list(BATCH_SIZES),
                "classic_s": series[classic],
                "pipelined_s": series[pipe],
                "crossover_batch": cross,
            }
            saved = [
                f"{(c - p) * 1e6:+.0f}"
                for c, p in zip(series[classic], series[pipe])
            ]
            crossover_lines.append(
                f"  {family:>8} {hw.name:<6} classic-pipelined [us]: "
                + " ".join(f"{s:>7}" for s in saved)
                + f" | {where}"
            )

    cols = list(next(iter(rows.values())))
    header = f"{'batch':>6} " + " ".join(f"{c:>14}" for c in cols)
    left = [header]
    right = [header]
    for nb, entry in rows.items():
        left.append(f"{nb:>6} " + " ".join(
            f"{entry[c] * 1e3:14.3f}" for c in cols))
        right.append(f"{nb:>6} " + " ".join(
            f"{entry[c] / nb * 1e6:14.3f}" for c in cols))
    text = (
        "Fig 6 (left): total solve time [ms]\n" + "\n".join(left)
        + "\n\nFig 6 (right): time per batch entry [us]\n" + "\n".join(right)
        + f"\n\nFig 6 (inset): solver schedules at batch {nb_fix} "
        "(A100, ELL) [ms]\n"
        + "\n".join(
            f"  {s:>18} {t * 1e3:10.3f}" for s, t in sorted(per_solver.items())
        )
        + "\n\nFig 6 (inset): classic vs pipelined crossover (ELL; "
        "positive = pipelined faster)\n"
        + f"  {'':>8} {'':<6} batch sizes:            "
        + " ".join(f"{nb:>7}" for nb in BATCH_SIZES) + "\n"
        + "\n".join(crossover_lines)
    )
    return ExperimentResult(
        name="fig6", description="solve time vs batch size",
        data={"series": rows, "per_solver": per_solver,
              "pipelined_crossover": pipelined},
        text=text,
    )


def fig7() -> ExperimentResult:
    """Fig. 7 — SpMV kernel time, CSR vs ELL, on the A100."""
    app, _ = measured_zero_guess()
    nnz = app.stencil.nnz
    series = []
    lines = [f"{'batch':>6} {'CSR [us]':>12} {'ELL [us]':>12} {'CSR/ELL':>8}"]
    for nb in BATCH_SIZES:
        t_csr = estimate_spmv(A100, "csr", N_ROWS, nnz, nb).total_time_s
        t_ell = estimate_spmv(
            A100, "ell", N_ROWS, nnz, nb, stored_nnz=STORED_ELL
        ).total_time_s
        series.append((nb, t_csr, t_ell))
        lines.append(
            f"{nb:>6} {t_csr * 1e6:12.2f} {t_ell * 1e6:12.2f} "
            f"{t_csr / t_ell:8.2f}"
        )
    return ExperimentResult(
        name="fig7", description="A100 SpMV kernel times",
        data={"series": series},
        text="Fig 7: batched SpMV kernel time on A100\n" + "\n".join(lines),
    )


def _picard_gpu_total(step_result, hw, nb, nnz, fmt, select=slice(None)):
    stored = STORED_ELL if fmt == "ell" else None
    t = 0.0
    for iters in step_result.linear_iterations:
        sel = iters[select]
        t += estimate_iterative_solve(
            hw, fmt, N_ROWS, nnz, tile_iterations(sel, nb), stored_nnz=stored
        ).total_time_s
    return t


def fig8() -> ExperimentResult:
    """Fig. 8 — warm start vs zero guess, 5 Picard iterations, A100."""
    app, warm = measured_picard(warm_start=True)
    _, zero = measured_picard(warm_start=False)
    nnz = app.stencil.nnz
    speedups: dict[str, list] = {"csr": [], "ell": []}
    lines = [f"{'batch':>6} {'fmt':>4} {'zero [ms]':>11} {'warm [ms]':>11} "
             f"{'speedup':>8}"]
    for fmt in ("csr", "ell"):
        for nb in BATCH_SIZES:
            t0 = _picard_gpu_total(zero, A100, nb, nnz, fmt)
            t1 = _picard_gpu_total(warm, A100, nb, nnz, fmt)
            speedups[fmt].append((nb, t0 / t1))
            lines.append(
                f"{nb:>6} {fmt:>4} {t0 * 1e3:11.3f} {t1 * 1e3:11.3f} "
                f"{t0 / t1:8.2f}"
            )
    return ExperimentResult(
        name="fig8", description="initial-guess effect on total time",
        data={"speedups": speedups},
        text="Fig 8: warm start vs zero guess, 5 Picard iterations, A100\n"
        + "\n".join(lines),
    )


def fig9() -> ExperimentResult:
    """Fig. 9 — GPU speedup over Skylake dgbsv, 5 Picard iterations."""
    app, warm = measured_picard(warm_start=True)
    nnz = app.stencil.nnz
    ns = len(app.config.species)
    combined: dict[str, list] = {hw.name: [] for hw in TABLE1_GPUS}
    by_species: dict[str, list] = {"ion": [], "electron": []}
    lines = [f"{'batch':>6} "
             + " ".join(f"{hw.name + ' comb':>11}" for hw in TABLE1_GPUS)
             + f" {'V100 ion':>11} {'V100 e-':>11}"]
    for nb in BATCH_SIZES:
        t_cpu = 5 * estimate_cpu_dgbsv(
            SKYLAKE_NODE, N_ROWS, KL, KU, nb
        ).total_time_s
        row = [f"{nb:>6}"]
        for hw in TABLE1_GPUS:
            s = t_cpu / _picard_gpu_total(warm, hw, nb, nnz, "ell")
            combined[hw.name].append((nb, s))
            row.append(f"{s:11.2f}")
        s_ion = t_cpu / _picard_gpu_total(
            warm, V100, nb, nnz, "ell", select=slice(1, None, ns)
        )
        s_e = t_cpu / _picard_gpu_total(
            warm, V100, nb, nnz, "ell", select=slice(0, None, ns)
        )
        by_species["ion"].append((nb, s_ion))
        by_species["electron"].append((nb, s_e))
        row += [f"{s_ion:11.2f}", f"{s_e:11.2f}"]
        lines.append(" ".join(row))
    return ExperimentResult(
        name="fig9", description="speedup over Skylake dgbsv",
        data={"combined": combined, "v100_by_species": by_species},
        text="Fig 9: speedup of batched BiCGSTAB (ELL, warm) over Skylake "
        "dgbsv, 5 Picard iterations\n" + "\n".join(lines),
    )

