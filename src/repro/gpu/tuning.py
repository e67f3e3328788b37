"""Automatic solver configuration — the paper's contribution #3.

"We tune the batched BiCGSTAB solver for the matrices from the XGC and
also provide an automatic tuning strategy depending on the size of the
matrix."  This module is that strategy: given the problem dimensions and
the target GPU, it decides

* the **matrix format** — DIA when the pattern is a small set of constant
  diagonals (the stencil case: no index loads at all, the smallest cached
  working set); else ELL when the rows are (near-)uniform so padding is
  cheap and the thread-per-row kernel applies; CSR otherwise
  (Section IV-A/IV-E);
* the **thread-block size** — proportional to the system size ("each
  thread block contains a number of threads proportional to the size of an
  individual linear system"), rounded to warp granularity, capped by the
  hardware thread limit, with multiple rows per thread when a system
  exceeds the cap;
* the **shared-memory request** — the §IV-D placement for the chosen
  residency target, degraded gracefully when the vectors outgrow the
  budget;
* whether the **fused single-kernel** path applies — for small systems
  where launch overhead and inter-kernel traffic dominate; large systems
  fall back to component kernels ("these considerations are not important
  for larger problem sizes").

Every decision carries its rationale so an application developer can audit
what the heuristic did — the flexibility/transparency balance the Ginkgo
design aims for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..core.workspace import StorageConfig, plan_storage, solver_vector_specs
from ..utils.validation import check_positive
from .hardware import GpuSpec
from .occupancy import Occupancy, compute_occupancy

__all__ = [
    "TuningDecision",
    "choose_solver_variant",
    "decision_for_config",
    "tune_batched_solver",
    "tune_for_matrix",
    "variant_estimates",
]

#: Hardware thread cap per block (uniform across the modelled GPUs).
MAX_THREADS_PER_BLOCK = 1024

#: Padding overhead above which ELL stops paying for itself.
ELL_PADDING_LIMIT = 0.5

#: Stored diagonals up to which the gather-free DIA kernel is preferred:
#: beyond one warp's worth of diagonals the per-thread sweep stops being a
#: short unrolled loop and the fringe padding typically grows too.
DIA_DIAG_LIMIT = 32

#: Fringe-padding overhead above which DIA stops paying for itself
#: (same trade as ELL: padded values are streamed and multiplied).
DIA_PADDING_LIMIT = 0.5

#: Systems below this row count are "small": the fused one-kernel design
#: (all iterations inside one launch) is the right call.
FUSED_ROW_LIMIT = 8192

#: Classic solvers with a pipelined (fused-reduction) sibling.
PIPELINED_VARIANTS = {"cg": "pipelined_cg", "bicgstab": "pipelined_bicgstab"}

#: Representative per-system iteration count used when the variant choice
#: has no measured counts to go on (the paper's n = 992 stencil converges
#: in a few tens of BiCGSTAB iterations at the production tolerance).
VARIANT_MODEL_ITERATIONS = 32


@dataclass(frozen=True)
class TuningDecision:
    """Outcome of the automatic configuration.

    Hashable value object: ``rationale`` (free-form provenance text) is
    excluded from equality and hashing, so two decisions reached by
    different routes — hand rules vs a distilled policy — compare equal
    exactly when they configure the same kernel.

    Attributes
    ----------
    fmt:
        Chosen matrix format (``"dia"``, ``"ell"`` or ``"csr"``).
    threads_per_block:
        Block size (warp multiple).
    rows_per_thread:
        How many rows each thread sweeps (1 unless the system is larger
        than the thread cap).
    storage:
        Shared-memory placement for the solver's vectors.
    occupancy:
        Residency the request achieves on the target GPU.
    fused_kernel:
        Whether the single-kernel (whole solve in one launch) path is
        selected.
    rationale:
        Human-readable reasons, keyed by decision (not compared/hashed).
    solver_variant:
        The solver actually configured: the requested solver, or its
        pipelined sibling when the batch size was supplied and the
        sync-aware cost model priced the pipelined variant cheaper
        (``None`` when no batch size was given, i.e. no variant choice
        was made).
    """

    fmt: str
    threads_per_block: int
    rows_per_thread: int
    storage: StorageConfig
    occupancy: Occupancy
    fused_kernel: bool
    rationale: dict = field(default_factory=dict, compare=False)
    solver_variant: str | None = None


def _choose_format(
    nnz_row_min: int,
    nnz_row_max: int,
    warp_size: int,
    padding_fraction: float,
    num_diags: int | None = None,
    dia_padding_fraction: float | None = None,
) -> tuple[str, str]:
    """DIA for compact diagonal patterns, else ELL when padding is cheap,
    CSR otherwise.

    ``padding_fraction`` is the fraction of stored ELL entries that would
    be padding: the exact value when the caller knows the row-length
    distribution, the worst-case ``1 - min/max`` bound otherwise.
    ``num_diags``/``dia_padding_fraction`` describe the diagonal structure
    when the caller inspected the pattern (``tune_for_matrix`` does); with
    no diagonal information the choice falls back to the ELL/CSR policy.
    """
    if (
        num_diags is not None
        and num_diags <= DIA_DIAG_LIMIT
        and (dia_padding_fraction or 0.0) <= DIA_PADDING_LIMIT
    ):
        return "dia", (
            f"pattern is {num_diags} constant diagonals "
            f"({100 * (dia_padding_fraction or 0.0):.0f}% fringe padding): "
            "gather-free DIA reads no column indices — index metadata "
            f"shrinks to {num_diags} offsets and the cached working set "
            "is the smallest of the three formats"
        )
    if padding_fraction <= ELL_PADDING_LIMIT:
        return "ell", (
            f"rows are near-uniform ({nnz_row_min}-{nnz_row_max} nnz, "
            f"{100 * padding_fraction:.0f}% padding): thread-per-row ELL "
            "kernel fills warps and reads coalesced"
        )
    if nnz_row_max >= warp_size // 2:
        return "csr", (
            f"irregular rows ({nnz_row_min}-{nnz_row_max} nnz) with long "
            "rows: warp-per-row CSR amortises the reduction"
        )
    return "csr", (
        f"irregular rows ({nnz_row_min}-{nnz_row_max} nnz): ELL padding "
        f"{100 * padding_fraction:.0f}% exceeds the "
        f"{100 * ELL_PADDING_LIMIT:.0f}% limit"
    )


def variant_estimates(
    hw: GpuSpec,
    fmt: str,
    num_rows: int,
    nnz: int,
    iterations_by_solver,
    *,
    num_batch: int | None = None,
    stored_nnz: int | None = None,
    preconditioner: str = "jacobi",
    gmres_restart: int = 30,
    value_bytes: int = 8,
    shared_budget_bytes: int | None = None,
):
    """Modeled cost of *each* candidate solver, not just the winner.

    ``iterations_by_solver`` maps solver names to their per-system
    iteration counts — an array, or a scalar expanded to ``num_batch``
    systems.  Returns ``{solver: GpuSolveEstimate}`` so every consumer of
    the classic-vs-pipelined trade (:func:`choose_solver_variant`, the
    fig6 crossover inset, the autotuning gym's evaluation harness) reads
    the *same* modeled numbers instead of re-deriving them.
    """
    import numpy as np

    from .timing import estimate_iterative_solve

    out = {}
    for name, iters in iterations_by_solver.items():
        arr = np.asarray(iters, dtype=np.float64)
        if arr.ndim == 0:
            if num_batch is None:
                raise ValueError(
                    "scalar iteration counts need num_batch to expand to"
                )
            check_positive(num_batch, "num_batch")
            arr = np.full(num_batch, float(arr))
        out[name] = estimate_iterative_solve(
            hw, fmt, num_rows, nnz, arr,
            stored_nnz=stored_nnz, solver=name,
            preconditioner=preconditioner, gmres_restart=gmres_restart,
            value_bytes=value_bytes, shared_budget_bytes=shared_budget_bytes,
        )
    return out


def choose_solver_variant(
    hw: GpuSpec,
    fmt: str,
    num_rows: int,
    nnz: int,
    num_batch: int,
    *,
    solver: str = "bicgstab",
    iterations: int = VARIANT_MODEL_ITERATIONS,
    stored_nnz: int | None = None,
    preconditioner: str = "jacobi",
    value_bytes: int = 8,
) -> tuple[str, str]:
    """Classic or pipelined: price both through the sync-aware cost model.

    The trade is batch-size dependent.  The device-wide reduction rounds
    cost ``sync_latency_us`` each *per kernel trip*, independent of the
    batch size — at small batches they dominate and the pipelined
    variants' fewer rounds win.  The pipelined extras (residual
    replacement SpMVs for pipelined CG, the heavier recurrence updates)
    scale per system, so a large enough batch amortises the sync savings
    away and classic wins back.  Returns ``(chosen_solver, rationale)``;
    solvers without a pipelined sibling are returned unchanged.  The
    underlying per-variant estimates come from :func:`variant_estimates`.
    """
    check_positive(num_batch, "num_batch")
    pipelined = PIPELINED_VARIANTS.get(solver)
    if pipelined is None:
        return solver, (
            f"{solver} has no pipelined variant: keeping the requested solver"
        )
    est = variant_estimates(
        hw, fmt, num_rows, nnz,
        {name: float(iterations) for name in (solver, pipelined)},
        num_batch=num_batch, stored_nnz=stored_nnz,
        preconditioner=preconditioner, value_bytes=value_bytes,
    )
    t_classic = est[solver].total_time_s
    t_pipe = est[pipelined].total_time_s
    saved_sync_us = (est[solver].sync_s - est[pipelined].sync_s) * 1e6
    if t_pipe < t_classic:
        return pipelined, (
            f"{pipelined} modelled at {t_pipe * 1e6:.0f} us vs "
            f"{t_classic * 1e6:.0f} us for {solver} on {num_batch} systems: "
            f"{saved_sync_us:.0f} us of reduction-round latency saved "
            "outweighs the pipelined per-system extras at this batch size"
        )
    return solver, (
        f"{solver} modelled at {t_classic * 1e6:.0f} us vs "
        f"{t_pipe * 1e6:.0f} us for {pipelined} on {num_batch} systems: "
        "the batch is large enough that the per-system pipelined extras "
        f"outweigh the {saved_sync_us:.0f} us of reduction-round savings"
    )


def _thread_plan(hw: GpuSpec, num_rows: int) -> tuple[int, int, str]:
    """Block size and rows-per-thread for one system (warp-granular)."""
    rows_per_thread = max(1, math.ceil(num_rows / MAX_THREADS_PER_BLOCK))
    lanes = math.ceil(num_rows / rows_per_thread)
    threads = min(
        math.ceil(lanes / hw.warp_size) * hw.warp_size, MAX_THREADS_PER_BLOCK
    )
    why = (
        f"{threads} threads ({threads // hw.warp_size} warps) for "
        f"{num_rows} rows, {rows_per_thread} row(s) per thread"
    )
    return threads, rows_per_thread, why


def tune_batched_solver(
    hw: GpuSpec,
    num_rows: int,
    nnz_row_min: int,
    nnz_row_max: int,
    *,
    solver: str = "bicgstab",
    gmres_restart: int = 30,
    value_bytes: int = 8,
    padding_fraction: float | None = None,
    num_diags: int | None = None,
    dia_padding_fraction: float | None = None,
    num_batch: int | None = None,
) -> TuningDecision:
    """Derive the full kernel configuration for a batched solve.

    Parameters
    ----------
    hw:
        Target GPU.
    num_rows:
        Rows of each system in the batch.
    nnz_row_min, nnz_row_max:
        Row-length range of the shared sparsity pattern.
    solver:
        Solver whose auxiliary vectors the shared-memory plan covers.
    gmres_restart:
        Krylov subspace dimension when ``solver="gmres"`` — it sizes the
        ``m + 1`` basis vectors the placement must cover.  Ignored by the
        fixed-footprint solvers.
    padding_fraction:
        Exact ELL padding fraction when the row-length distribution is
        known (``tune_for_matrix`` supplies it); defaults to the
        worst-case ``1 - min/max`` bound.
    num_diags, dia_padding_fraction:
        Diagonal structure of the pattern, when known: the number of
        constant diagonals carrying entries and the fringe-padding
        fraction of the DIA bands.  Enables the gather-free DIA choice;
        omitted (the default), the ELL/CSR policy applies unchanged.
    num_batch:
        Number of systems in the batch.  When supplied (and the solver
        has a pipelined sibling), :func:`choose_solver_variant` prices
        classic vs pipelined through the sync-aware cost model and the
        decision's shared-memory plan covers the *chosen* variant;
        omitted, no variant choice is made (``solver_variant=None``).
    """
    check_positive(num_rows, "num_rows")
    check_positive(nnz_row_min, "nnz_row_min")
    if nnz_row_max < nnz_row_min:
        raise ValueError("nnz_row_max must be >= nnz_row_min")
    if padding_fraction is None:
        padding_fraction = 1.0 - nnz_row_min / nnz_row_max
    if not 0.0 <= padding_fraction < 1.0:
        raise ValueError("padding_fraction must be in [0, 1)")
    if dia_padding_fraction is not None and not 0.0 <= dia_padding_fraction < 1.0:
        raise ValueError("dia_padding_fraction must be in [0, 1)")

    rationale: dict[str, str] = {}
    fmt, why = _choose_format(
        nnz_row_min, nnz_row_max, hw.warp_size, padding_fraction,
        num_diags, dia_padding_fraction,
    )
    rationale["format"] = why

    # Classic vs pipelined: only decidable when the batch size is known —
    # the sync savings are per kernel trip, the pipelined extras per
    # system, so the break-even point is a batch size.
    solver_variant: str | None = None
    plan_solver = solver
    if num_batch is not None:
        stored = nnz_row_max * num_rows
        nnz = max(int(round((1.0 - padding_fraction) * stored)), num_rows)
        solver_variant, why = choose_solver_variant(
            hw, fmt, num_rows, nnz, num_batch, solver=solver,
            stored_nnz=stored if fmt in ("ell", "dia") else None,
            value_bytes=value_bytes,
        )
        rationale["solver_variant"] = why
        plan_solver = solver_variant

    # Threads proportional to the system size, warp-granular, capped.
    threads, rows_per_thread, why = _thread_plan(hw, num_rows)
    rationale["threads"] = why

    # Shared memory: the §IV-D placement under the residency budget; if
    # even the SpMV vectors don't fit, fall back to a single vector and
    # finally to none (the kernel then streams through global memory).
    budget = hw.shared_budget_per_block()
    storage = plan_storage(
        solver_vector_specs(plan_solver, gmres_restart=gmres_restart),
        num_rows, budget, value_bytes=value_bytes,
    )
    if storage.num_shared == 0 and budget > 0:
        rationale["shared"] = (
            f"vectors of {num_rows * value_bytes} B exceed the "
            f"{budget} B budget: all vectors spill to global memory"
        )
    else:
        rationale["shared"] = (
            f"{storage.num_shared}/{storage.num_vectors} vectors in "
            f"{storage.shared_bytes_used} B of shared memory "
            f"(budget {budget} B, SpMV vectors first)"
        )
    if fmt == "dia" and num_diags is not None:
        # The gather-free kernel's read-only working set has no per-entry
        # index array; quantify what that frees for the cache model.
        ell_index_bytes = num_diags * num_rows * 4
        rationale["working_set"] = (
            f"index working set is {num_diags * 4} B (offsets only) vs "
            f"~{ell_index_bytes} B of ELL column indices: the freed L1/L2 "
            "capacity re-hits matrix values and spilled vectors instead"
        )

    occ = compute_occupancy(hw, storage.shared_bytes_used, threads)

    fused = num_rows <= FUSED_ROW_LIMIT
    rationale["kernel"] = (
        "fused single-kernel solve: launch overhead and inter-kernel "
        "traffic dominate at this size"
        if fused
        else "component kernels: the system is large enough that kernel "
        "launch overhead is negligible and resources are better spent on "
        "per-operation tuning"
    )

    return TuningDecision(
        fmt=fmt,
        threads_per_block=threads,
        rows_per_thread=rows_per_thread,
        storage=storage,
        occupancy=occ,
        fused_kernel=fused,
        rationale=rationale,
        solver_variant=solver_variant,
    )


def decision_for_config(
    hw: GpuSpec,
    config,
    num_rows: int,
    *,
    provenance: str = "policy",
) -> TuningDecision:
    """Materialise a searched configuration into a :class:`TuningDecision`.

    ``config`` is any object with the autotuning gym's configuration
    attributes (:class:`repro.tune.TuneConfig`, duck-typed so this layer
    stays independent of :mod:`repro.tune`): ``solver``, ``fmt``,
    ``value_bytes``, ``gmres_restart``, ``target_blocks_per_cu`` and
    ``compaction_threshold``.  The kernel geometry that is *not* searched
    (thread sizing, fused-vs-component path) follows the same rules as
    :func:`tune_batched_solver`; the searched knobs — format, solver
    variant, precision, shared-memory residency — come from the config.
    """
    check_positive(num_rows, "num_rows")
    threads, rows_per_thread, thread_why = _thread_plan(hw, num_rows)
    budget = hw.shared_budget_per_block(config.target_blocks_per_cu)
    storage = plan_storage(
        solver_vector_specs(config.solver, gmres_restart=config.gmres_restart),
        num_rows, budget, value_bytes=config.value_bytes,
    )
    occ = compute_occupancy(hw, storage.shared_bytes_used, threads)
    fused = num_rows <= FUSED_ROW_LIMIT
    rationale = {
        "policy": (
            f"searched configuration ({provenance}): solver="
            f"{config.solver}, format={config.fmt}, precision="
            f"{config.precision}, {config.target_blocks_per_cu} target "
            "block(s)/CU — selected by the autotuning gym over the GPU "
            "cost model, not by the hand rules"
        ),
        "threads": thread_why,
        "shared": (
            f"{storage.num_shared}/{storage.num_vectors} vectors in "
            f"{storage.shared_bytes_used} B of shared memory (searched "
            f"residency target {config.target_blocks_per_cu} block(s)/CU, "
            f"budget {budget} B)"
        ),
        "kernel": (
            "fused single-kernel solve" if fused else "component kernels"
        ),
    }
    if config.compaction_threshold:
        rationale["compaction"] = (
            f"re-compact the active batch below {config.compaction_threshold:.0%} "
            "active systems"
        )
    return TuningDecision(
        fmt=config.fmt,
        threads_per_block=threads,
        rows_per_thread=rows_per_thread,
        storage=storage,
        occupancy=occ,
        fused_kernel=fused,
        rationale=rationale,
        solver_variant=config.solver,
    )


def tune_for_matrix(
    hw: GpuSpec,
    matrix,
    *,
    solver: str = "bicgstab",
    gmres_restart: int = 30,
    value_bytes: int | None = None,
    num_batch: int | None = None,
    policy=None,
    scenario: str = "xgc",
) -> TuningDecision:
    """Tune directly from a batch matrix (inspects its pattern).

    Knowing the full pattern, the exact padding fractions and the diagonal
    structure drive the format choice — the XGC pattern (9 constant
    diagonals, ~4% fringe padding) selects the gather-free DIA format
    here, where the dimension-only entry point would still pick ELL.
    ``value_bytes`` defaults to the matrix's own value size, so an fp32
    batch gets the fp32 shared-memory plan (twice the vector capacity)
    without any extra argument.  ``num_batch`` defaults to the matrix's
    own batch size, enabling the classic-vs-pipelined variant choice;
    pass ``0`` to suppress it.

    ``policy`` is an optional searched-policy lookup (a
    :class:`repro.tune.TuningPolicy`, anything with its ``lookup``
    signature, or a path to a ``best_configs.json``): when it holds an
    entry for ``(hw.name, num_rows, num_batch, scenario)``, that searched
    configuration is materialised via :func:`decision_for_config` and the
    hand rules below are bypassed.  With no policy (the default) or on a
    lookup miss, the decision is **bit-identical** to the policy-free
    path.
    """
    import numpy as np

    from ..core.convert import to_format

    if value_bytes is None:
        value_bytes = int(np.dtype(getattr(matrix, "dtype", np.float64)).itemsize)

    csr = to_format(matrix, "csr")
    nnz_row = csr.nnz_per_row()
    if nnz_row.size == 0 or nnz_row.max() == 0:
        raise ValueError("cannot tune for an empty sparsity pattern")
    if num_batch is None:
        num_batch = int(getattr(csr, "num_batch", 0))

    if policy is not None:
        if isinstance(policy, (str, bytes)) or hasattr(policy, "read_text"):
            from ..tune.policy import TuningPolicy

            policy = TuningPolicy.load(policy)
        hit = policy.lookup(hw.name, csr.num_rows, num_batch, scenario)
        if hit is not None:
            return decision_for_config(
                hw, hit, csr.num_rows,
                provenance=f"policy entry for {hw.name}, n={csr.num_rows}, "
                           f"batch={num_batch}, scenario={scenario!r}",
            )

    lo = max(int(nnz_row.min()), 1)
    hi = int(nnz_row.max())
    padding = 1.0 - float(nnz_row.mean()) / hi

    rows = np.repeat(np.arange(csr.num_rows, dtype=np.int64), nnz_row)
    offsets = np.unique(csr.col_idxs.astype(np.int64) - rows)
    num_diags = int(offsets.size)
    dia_padding = 1.0 - csr.nnz_per_system / (num_diags * csr.num_rows)
    return tune_batched_solver(
        hw, csr.num_rows, lo, hi, solver=solver, gmres_restart=gmres_restart,
        value_bytes=value_bytes, padding_fraction=padding,
        num_diags=num_diags, dia_padding_fraction=dia_padding,
        num_batch=num_batch or None,
    )
