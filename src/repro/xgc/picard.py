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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.faults import derive_health, worst_health
from ..core.logging_ import BatchLogger
from ..core.solvers import EscalationSolver, RefinementSolver, make_solver
from ..core.solvers.schedule import iterative_solver_names
from ..core.stop import AbsoluteResidual, RelativeResidual
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
    warm_start:
        Use the previous Picard iterate as initial guess of each linear
        solve (paper default; switch off to reproduce the zero-guess
        baseline of Fig. 8).
    linear_tol:
        Absolute residual tolerance of the inner batched solver
        (paper: 1e-10).
    max_linear_iter:
        Inner-solver iteration cap.
    matrix_format:
        ``"ell"`` (paper's best), ``"csr"``, or ``"dia"`` (the gather-free
        stencil format; identical numerics, lowest host SpMV cost).
    preconditioner:
        Preconditioner name for the inner solver (paper: ``"jacobi"``).
    picard_tol:
        Optional relative-update early exit for the Picard loop;
        0 disables it (fixed iteration count, like the proxy app).
    conservation_fix:
        Apply XGC's post-step conservation correction (restore density,
        parallel momentum and energy exactly by a low-order polynomial
        multiplier).  On by default, as in the production code.
    compact_threshold:
        Active-batch compaction trigger of the inner solver: when the
        active fraction of the batch drops to this value or below, the
        solver gathers the still-active systems into a compact sub-batch.
        Especially effective with warm starts, where late Picard solves
        start mostly converged.  ``None`` disables compaction.
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
    max_linear_iter: int = 500
    matrix_format: str = "ell"
    preconditioner: str = "jacobi"
    picard_tol: float = 0.0
    conservation_fix: bool = True
    compact_threshold: float | None = 0.5
    precision: str = "fp64"
    escalation: bool = False
    fault_injector: object | None = None

    def __post_init__(self) -> None:
        check_positive(self.num_iterations, "num_iterations")
        check_in(self.solver, iterative_solver_names(), "solver")
        check_positive(self.linear_tol, "linear_tol")
        check_positive(self.max_linear_iter, "max_linear_iter")
        check_in(self.matrix_format, ("ell", "csr", "dia"), "matrix_format")
        check_in(self.precision, ("fp64", "fp32", "mixed"), "precision")
        if self.compact_threshold is not None and not 0.0 < self.compact_threshold <= 1.0:
            raise ValueError(
                f"compact_threshold must lie in (0, 1] or be None, "
                f"got {self.compact_threshold}"
            )


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
        if self.options.precision == "fp64":
            self._solver = make_solver(
                self.options.solver,
                preconditioner=self.options.preconditioner,
                criterion=AbsoluteResidual(self.options.linear_tol),
                max_iter=self.options.max_linear_iter,
                logger=BatchLogger(),
                compact_threshold=self.options.compact_threshold,
            )
        else:
            # Low-precision inner sweeps + fp64 outer correction: the
            # refined solution meets linear_tol against the true double
            # residual, so conservation behaves as in the fp64 run.
            inner = make_solver(
                self.options.solver,
                preconditioner=self.options.preconditioner,
                criterion=RelativeResidual(1e-4),
                max_iter=self.options.max_linear_iter,
                logger=BatchLogger(),
                compact_threshold=self.options.compact_threshold,
                precision=self.options.precision,
            )
            self._solver = RefinementSolver(
                inner,
                criterion=AbsoluteResidual(self.options.linear_tol),
            )
        if self.options.escalation:
            # Primary rung is the solver built above — healthy batches run
            # its exact instruction stream; only unhealthy systems pay for
            # the ladder.
            self._solver = EscalationSolver(
                ladder=(self._solver, "gmres", "refinement", "direct"),
                preconditioner=self.options.preconditioner,
                criterion=AbsoluteResidual(self.options.linear_tol),
                max_iter=self.options.max_linear_iter,
                compact_threshold=self.options.compact_threshold,
            )
        # One arena for all inner solves: the five solves of each Picard
        # loop — and every loop of every time step — reuse these batch
        # vectors, so the hot path performs no allocations after the first
        # solve.
        self._workspace = SolverWorkspace(self.num_batch, grid.num_cells)
        # Per-format assembly values buffer: every re-assembly of the
        # Picard loop writes its GEMM output into the same array.
        self._assembly_out: np.ndarray | None = None

    @property
    def num_batch(self) -> int:
        """Number of systems per linear solve."""
        return self.masses.shape[0]

    def assemble(self, f_k: np.ndarray, dt: float):
        """Assemble the batched matrix linearised at ``f_k`` (public for
        benchmarks that need the matrices without stepping)."""
        coeffs = linearized_coefficients_masses(
            self.grid, self.masses, f_k, dt=dt, nu_ref=self.nu_ref,
            eta=self.eta, kurtosis_gamma=self.kurtosis_gamma,
        )
        if self.options.matrix_format == "ell":
            matrix = self.stencil.assemble_ell(coeffs, out=self._assembly_out)
        elif self.options.matrix_format == "dia":
            matrix = self.stencil.assemble_dia(coeffs, out=self._assembly_out)
        else:
            matrix = self.stencil.assemble(coeffs, out=self._assembly_out)
        # The stencil pattern is shared by reference across assemblies, and
        # from the second Picard iteration on the GEMM lands in this same
        # values array — re-assembly allocates nothing.
        self._assembly_out = matrix.values
        return matrix

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
            matrix = self.assemble(f_k, dt)
            b = f_n
            x0 = f_k if self.options.warm_start else None
            if injector is not None:
                # Corruption happens on copies; self._assembly_out (the
                # reusable GEMM target) keeps the clean values.
                matrix = injector.corrupt_matrix(matrix)
                b = injector.corrupt_rhs(b)
                x0 = injector.corrupt_guess(x0)
            res = self._solver.solve(matrix, b, x0=x0, workspace=self._workspace)
            converged &= res.converged
            step_health = (
                res.health
                if res.health is not None
                else derive_health(res.converged, res.residual_norms)
            )
            health = step_health if health is None else worst_health(health, step_health)
            iters_per_picard.append(res.iterations)

            update = np.linalg.norm(res.x - f_k, axis=1) / rhs_scale
            updates.append(float(update.max()))
            f_k = res.x
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
