"""Backward-Euler time step with Picard iteration (the proxy-app core loop).

XGC integrates the collision operator implicitly: each time step solves the
nonlinear system ``f^{n+1} = f^n + dt * C(f^{n+1})`` by Picard iteration —
freeze the coefficients at the current iterate, solve the resulting linear
system, repeat (typically five times, Section II-A).

Every linear solve goes through the batched solver with one matrix per
(mesh node x species); ions and electrons are solved in the same batch.
Two details from the paper are first-class options here because they carry
experiments:

* **warm start** (Fig. 8 / Table III): the previous Picard iterate is the
  initial guess of the next linear solve, cutting its iteration count as
  the Picard loop converges;
* the **linear tolerance** (Section V): 1e-10 absolute is the loosest
  setting for which the conservation acceptance test (1e-7) passes and the
  Picard loop converges.

The systems of a batch are independent, so a large batch's linear solve is
split into contiguous shards that run concurrently, at most one per usable
core (the GPU solves one system per work-group).  No system's result
depends on the shard that solved it, so a sharded step is bit-identical
to a serial one.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from ..core.faults import worst_health
from ..core.logging_ import BatchLogger
from ..core.solvers import EscalationSolver, RefinementSolver, make_solver
from ..core.solvers.schedule import iterative_solver_names
from ..core.stop import AbsoluteResidual, RelativeResidual
from ..core.types import DTYPE, batch_tile
from ..core.workspace import SolverWorkspace
from ..utils.validation import check_in, check_positive
from .assembly import CollisionStencil
from .collision import linearized_coefficients_masses
from .conservation import (
    ConservationReport,
    apply_conservation_fix,
    check_conservation,
)
from .grid import VelocityGrid

__all__ = ["PicardOptions", "PicardStepResult", "PicardStepper"]

#: Smallest shard of a sharded linear solve, in SpMV batch tiles
#: (:func:`~repro.core.types.batch_tile`; 33 systems at n = 992).  On two
#: cores, one warm DIA step at n = 992 was slower with two shards than
#: with one at 34 and 66 systems, even at 128 and faster at 240 (1.55 s
#: against 1.71 s).  Three tiles (99 systems) keep batches of 128 and
#: fewer on the serial path.
MIN_SHARD_TILES = 3

#: The thread pool that runs shards 1.. of a sharded solve, and the process
#: that built it.  Both are set on the first sharded solve.  A pool inherited
#: across a fork has no threads and would never run a task, so a forked
#: child builds its own.
_POOL = None
_POOL_PID = 0


def _usable_cores() -> int:
    """Cores this process may run on: its CPU affinity where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API (macOS, Windows)
        return os.cpu_count() or 1


def _shard_bounds(num_batch: int, num_rows: int) -> list[tuple[int, int]]:
    """Contiguous ``[lo, hi)`` shards of a linear solve, at most one per core.

    Each shard holds at least :data:`MIN_SHARD_TILES` SpMV batch tiles, so
    a small batch is a single shard: the serial path.
    """
    min_shard = MIN_SHARD_TILES * batch_tile(num_rows, np.dtype(DTYPE).itemsize)
    count = max(1, min(_usable_cores(), num_batch // min_shard))
    return [(k * num_batch // count, (k + 1) * num_batch // count) for k in range(count)]


def _shard_pool():
    """This process's shard thread pool (imported and built on first use)."""
    global _POOL, _POOL_PID
    if _POOL is None or _POOL_PID != os.getpid():
        from concurrent.futures import ThreadPoolExecutor

        _POOL = ThreadPoolExecutor(
            max_workers=max(1, _usable_cores() - 1), thread_name_prefix="picard-shard"
        )
        _POOL_PID = os.getpid()
    return _POOL


def _solve_shard(solver, matrix, b, x0, workspace):
    """One shard's solve: ``(x, iterations, converged, health)``."""
    res = solver.solve(matrix, b, x0=x0, workspace=workspace)
    return res.x, res.iterations, res.converged, res.health


@dataclass(frozen=True)
class PicardOptions:
    """Tunable knobs of the Picard time step.

    Attributes
    ----------
    num_iterations:
        Picard iterations per time step (paper: 5).
    solver:
        Which batched iterative solver runs the inner linear solves:
        any name with a declared operation schedule (``"bicgstab"``,
        the paper's production choice and the default; its sync-avoiding
        sibling ``"pipelined_bicgstab"``; ``"cgs"``, ``"gmres"``,
        ``"richardson"``; the SPD-only ``"cg"`` / ``"pipelined_cg"`` are
        accepted but the collision matrices are nonsymmetric — caveat
        emptor).  The default is bit-identical to earlier releases.
        The inner solver keeps its own iteration cap (500) and
        active-batch compaction threshold (0.5).
    warm_start:
        Use the previous Picard iterate as initial guess of each linear
        solve (paper default; switch off to reproduce the zero-guess
        baseline of Fig. 8).
    linear_tol:
        Absolute residual tolerance of the inner batched solver
        (paper: 1e-10).
    matrix_format:
        ``"dia"`` (the default: the gather-free stencil format the tuner
        picks for the collision stencil on every GPU, with the lowest host
        SpMV cost), ``"ell"`` (the paper's best, used by its experiments)
        or ``"csr"``.  ELL and DIA steps are bit-identical: each row sums
        its products in the same order.
    preconditioner:
        Preconditioner name for the inner solver (paper: ``"jacobi"``).
    picard_tol:
        Optional relative-update early exit for the Picard loop;
        0 disables it (fixed iteration count, like the proxy app).
    conservation_fix:
        Apply XGC's post-step conservation correction (restore density,
        parallel momentum and energy exactly by a low-order polynomial
        multiplier).  On by default, as in the production code.
    precision:
        Precision of the inner linear solves: ``"fp64"`` (paper default,
        bit-identical to earlier releases), or ``"fp32"`` / ``"mixed"``,
        which run the inner solver in single precision wrapped in
        fp64 iterative refinement
        (:class:`~repro.core.solvers.refinement.RefinementSolver`) so the
        refined solutions still meet ``linear_tol`` in double precision —
        the conservation checks are unaffected.
    escalation:
        Wrap the inner solver in an
        :class:`~repro.core.solvers.escalation.EscalationSolver`: systems
        the primary solve leaves unhealthy (breakdown, NaN, divergence,
        stagnation) are gathered and re-solved up the
        GMRES → fp64 refinement → banded-direct ladder, all to the same
        ``linear_tol``.  Healthy systems run the exact same instruction
        stream as the non-escalating path and stay bit-identical.
    fault_injector:
        Optional :class:`~repro.utils.fault_injection.FaultInjector`
        applied to every assembled matrix / right-hand side / warm start
        of the Picard loop — the deterministic rehearsal hook for the
        escalation path.  The injector corrupts *copies*; the assembly
        buffers stay pristine.
    """

    num_iterations: int = 5
    solver: str = "bicgstab"
    warm_start: bool = True
    linear_tol: float = 1e-10
    matrix_format: str = "dia"
    preconditioner: str = "jacobi"
    picard_tol: float = 0.0
    conservation_fix: bool = True
    precision: str = "fp64"
    escalation: bool = False
    fault_injector: object | None = None

    def __post_init__(self) -> None:
        check_positive(self.num_iterations, "num_iterations")
        check_in(self.solver, iterative_solver_names(), "solver")
        check_positive(self.linear_tol, "linear_tol")
        check_in(self.matrix_format, ("ell", "csr", "dia"), "matrix_format")
        check_in(self.precision, ("fp64", "fp32", "mixed"), "precision")


@dataclass
class PicardStepResult:
    """Everything one Picard time step produced.

    Attributes
    ----------
    f_new:
        The accepted ``f^{n+1}`` batch, shape ``(num_batch, n)``.
    linear_iterations:
        Per-Picard-iteration, per-system linear-solver iteration counts,
        shape ``(picard_iters_run, num_batch)`` — the raw data behind
        Table III.
    picard_updates:
        Per-Picard-iteration max relative update ``||f^{k+1} - f^k|| /
        ||f^n||`` across the batch.
    converged:
        Per-system mask: every inner solve converged.
    conservation:
        Moment-drift report between ``f^n`` and ``f^{n+1}``.
    health:
        Per-system worst :class:`~repro.core.faults.SolverHealth` observed
        across the Picard loop's linear solves (``np.int8`` codes).  With
        escalation enabled a rescued system reads CONVERGED here — the
        ladder is part of the solve.
    """

    f_new: np.ndarray
    linear_iterations: np.ndarray
    picard_updates: list = field(default_factory=list)
    converged: np.ndarray = None
    conservation: ConservationReport = None
    health: np.ndarray = None

    @property
    def total_linear_iterations(self) -> np.ndarray:
        """Per-system linear iterations summed over the Picard loop."""
        return self.linear_iterations.sum(axis=0)


class PicardStepper:
    """Backward-Euler + Picard driver for a batch of collision problems.

    Parameters
    ----------
    grid:
        Shared velocity grid (one stencil is precomputed and reused).
    masses:
        Per-batch-entry species masses, shape ``(num_batch,)`` — mixed
        ion/electron batches are expressed here.
    nu_ref:
        Reference collision frequency (see
        :func:`~repro.xgc.collision.linearized_coefficients`).
    eta:
        Pitch-angle scattering weight.
    options:
        :class:`PicardOptions`; defaults to the paper's configuration.
    stencil:
        Optional precomputed :class:`~repro.xgc.assembly.CollisionStencil`
        to share across steppers on the same grid.
    """

    def __init__(
        self,
        grid: VelocityGrid,
        masses: np.ndarray,
        *,
        nu_ref: float = 1.0,
        eta: float = 0.3,
        kurtosis_gamma: float = 2.0,
        options: PicardOptions | None = None,
        stencil: CollisionStencil | None = None,
    ) -> None:
        self.grid = grid
        self.masses = np.asarray(masses, dtype=np.float64)
        if self.masses.ndim != 1 or np.any(self.masses <= 0):
            raise ValueError("masses must be a 1-D array of positive values")
        self.nu_ref = float(check_positive(nu_ref, "nu_ref"))
        self.eta = float(eta)
        self.kurtosis_gamma = float(kurtosis_gamma)
        self.options = options or PicardOptions()
        self.stencil = stencil or CollisionStencil(grid)
        self._solver = self._make_solver()
        # One (lo, hi, solver, arena) per shard of the linear solve, built
        # on the first step; shard 0 owns self._solver.  The five solves of
        # each Picard loop, and every loop of every time step, reuse the
        # arenas' batch vectors, so the hot path performs no allocations
        # after the first solve.
        self._shards: list[tuple] = []
        # Per-format assembly values buffer: every re-assembly of the
        # Picard loop writes its GEMM output into the same array.
        self._assembly_out: np.ndarray | None = None

    def _make_solver(self):
        """The inner linear solver the options describe (one per shard)."""
        if self.options.precision == "fp64":
            solver = make_solver(
                self.options.solver,
                preconditioner=self.options.preconditioner,
                criterion=AbsoluteResidual(self.options.linear_tol),
                logger=BatchLogger(),
            )
        else:
            # Low-precision inner sweeps + fp64 outer correction: the
            # refined solution meets linear_tol against the true double
            # residual, so conservation behaves as in the fp64 run.
            inner = make_solver(
                self.options.solver,
                preconditioner=self.options.preconditioner,
                criterion=RelativeResidual(1e-4),
                logger=BatchLogger(),
                precision=self.options.precision,
            )
            solver = RefinementSolver(
                inner,
                criterion=AbsoluteResidual(self.options.linear_tol),
            )
        if self.options.escalation:
            # Primary rung is the solver built above — healthy batches run
            # its exact instruction stream; only unhealthy systems pay for
            # the ladder.
            solver = EscalationSolver(
                ladder=(solver, "gmres", "refinement", "direct"),
                preconditioner=self.options.preconditioner,
                criterion=AbsoluteResidual(self.options.linear_tol),
            )
        return solver

    @property
    def num_batch(self) -> int:
        """Number of systems per linear solve."""
        return self.masses.shape[0]

    def assemble(self, f_k: np.ndarray, dt: float):
        """Assemble the batched matrix linearised at ``f_k`` (public for
        benchmarks that need the matrices without stepping).  The matrix
        owns its values: later steps never write into them."""
        return self._assemble(f_k, dt, None)

    def _assemble(self, f_k: np.ndarray, dt: float, out: np.ndarray | None):
        """Assemble at ``f_k``; the GEMM writes into ``out`` when given."""
        coeffs = linearized_coefficients_masses(
            self.grid, self.masses, f_k, dt=dt, nu_ref=self.nu_ref,
            eta=self.eta, kurtosis_gamma=self.kurtosis_gamma,
        )
        if self.options.matrix_format == "ell":
            return self.stencil.assemble_ell(coeffs, out=out)
        if self.options.matrix_format == "dia":
            return self.stencil.assemble_dia(coeffs, out=out)
        return self.stencil.assemble(coeffs, out=out)

    def _solve(self, matrix, b: np.ndarray, x0: np.ndarray | None):
        """One linear solve of the Picard loop: ``(x, iterations, converged,
        health)`` in batch order.

        The batch is solved in the contiguous shards of
        :func:`_shard_bounds`, each with its own solver and arena and a view
        of the matrix values.  Shard 0 runs on this thread and the others on
        the shard pool: moving shard 0 to a pool thread too raised peak
        memory by 7-9% on a 240-system step.
        """
        bounds = _shard_bounds(self.num_batch, self.grid.num_cells)
        if [shard[:2] for shard in self._shards] != bounds:
            self._shards = [
                (lo, hi, self._solver if k == 0 else self._make_solver(),
                 SolverWorkspace(hi - lo, self.grid.num_cells))
                for k, (lo, hi) in enumerate(bounds)
            ]
        if len(bounds) == 1:
            _, _, solver, arena = self._shards[0]
            return _solve_shard(solver, matrix, b, x0, arena)
        from concurrent.futures import wait

        jobs = [
            (solver, matrix.with_values(matrix.values[lo:hi]), b[lo:hi],
             None if x0 is None else x0[lo:hi], arena)
            for lo, hi, solver, arena in self._shards
        ]
        futures = [_shard_pool().submit(_solve_shard, *job) for job in jobs[1:]]
        try:
            parts = [_solve_shard(*jobs[0])]
        finally:
            # No shard outlives the call: the next solve reuses its arena.
            wait(futures)
        parts += [future.result() for future in futures]
        return tuple(np.concatenate(column) for column in zip(*parts))

    def step(self, f_n: np.ndarray, dt: float) -> PicardStepResult:
        """Advance the batch one backward-Euler step of size ``dt``."""
        check_positive(dt, "dt")
        f_n = np.ascontiguousarray(f_n, dtype=np.float64)
        if f_n.shape != (self.num_batch, self.grid.num_cells):
            raise ValueError(
                f"f_n must have shape ({self.num_batch}, "
                f"{self.grid.num_cells}), got {f_n.shape}"
            )

        f_k = f_n.copy()
        rhs_scale = np.linalg.norm(f_n, axis=1)
        iters_per_picard: list[np.ndarray] = []
        updates: list[float] = []
        converged = np.ones(self.num_batch, dtype=bool)
        health = None
        injector = self.options.fault_injector

        for _ in range(self.options.num_iterations):
            # From the second Picard iteration on the GEMM lands in the
            # first one's values array: re-assembly allocates nothing.
            matrix = self._assemble(f_k, dt, self._assembly_out)
            self._assembly_out = matrix.values
            b = f_n
            x0 = f_k if self.options.warm_start else None
            if injector is not None:
                # Corruption happens on copies; self._assembly_out (the
                # reusable GEMM target) keeps the clean values.
                matrix = injector.corrupt_matrix(matrix)
                b = injector.corrupt_rhs(b)
                x0 = injector.corrupt_guess(x0)
            x, iterations, solved, step_health = self._solve(matrix, b, x0)
            converged &= solved
            health = step_health if health is None else worst_health(health, step_health)
            iters_per_picard.append(iterations)

            update = np.linalg.norm(x - f_k, axis=1) / rhs_scale
            updates.append(float(update.max()))
            f_k = x
            if self.options.picard_tol and update.max() < self.options.picard_tol:
                break

        if self.options.conservation_fix:
            f_k = apply_conservation_fix(self.grid, f_n, f_k)

        return PicardStepResult(
            f_new=f_k,
            linear_iterations=np.array(iters_per_picard),
            picard_updates=updates,
            converged=converged,
            conservation=check_conservation(self.grid, f_n, f_k),
            health=health,
        )

    def run(self, f0: np.ndarray, dt: float, num_steps: int) -> tuple[np.ndarray, list]:
        """Advance ``num_steps`` time steps; returns (final f, step results)."""
        check_positive(num_steps, "num_steps")
        f = np.ascontiguousarray(f0, dtype=np.float64)
        results = []
        for _ in range(num_steps):
            result = self.step(f, dt)
            results.append(result)
            f = result.f_new
        return f, results
