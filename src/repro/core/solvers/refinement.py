"""Iterative refinement: low-precision inner solves, fp64 outer correction.

The classic mixed-precision recovery scheme (Wilkinson; revived for GPUs by
Haidar et al.): solve the system cheaply in reduced precision, then correct
in full precision against the *double-precision* residual,

.. math::

    r_j = b - A x_j            \\quad\\text{(fp64)}\\\\
    A d_j \\approx r_j          \\quad\\text{(fp32 / mixed inner solve)}\\\\
    x_{j+1} = x_j + d_j        \\quad\\text{(fp64)}

Each outer sweep streams the matrix in 4-byte values — halving SpMV traffic
on a memory-bound kernel — while the fp64 correction loop restores full
double accuracy: the outer criterion is checked against the true fp64
residual, so :class:`RefinementSolver` reaches the same absolute tolerances
as a pure fp64 solve whenever the inner solver makes progress.

The low-precision matrix copy is cached across solves keyed on the shared
sparsity-pattern arrays (which :meth:`astype` reuses by reference): a Picard
driver that re-assembles values into the same pattern every step pays one
``copyto`` cast per solve, never a fresh allocation.
"""

from __future__ import annotations

import numpy as np

from ...utils.validation import as_value_array, check_positive
from ..batch_dense import batch_norm2
from ..faults import derive_health
from ..precision import MIXED, PrecisionPolicy, precision_policy
from ..preconditioners import BatchPreconditioner
from ..spmv import residual
from ..stop import AbsoluteResidual, RelativeResidual, StoppingCriterion
from ..types import BatchShape, DimensionMismatch, SolveResult
from ..workspace import SolverWorkspace
from .bicgstab import BatchBicgstab

__all__ = ["RefinementSolver"]


def _pattern_arrays(matrix) -> tuple:
    """The shared sparsity-pattern arrays of a batch matrix (may be empty).

    ``astype`` reuses these by reference, so identity (``is``) comparison
    detects "same pattern, refreshed values" across re-assembled matrices.
    """
    for names in (("row_ptrs", "col_idxs"), ("col_idxs",), ("offsets",)):
        if all(hasattr(matrix, n) for n in names):
            return tuple(getattr(matrix, n) for n in names)
    return ()


class RefinementSolver:
    """Batched iterative refinement around a low-precision inner solver.

    Parameters
    ----------
    inner:
        The inner batched iterative solver producing the corrections.  When
        omitted, a :class:`~repro.core.solvers.bicgstab.BatchBicgstab` is
        built with the requested ``precision``, an ``inner_tol`` relative
        residual criterion (each sweep only needs to reduce the correction
        residual by a modest factor), and ``inner_max_iter``.
    precision:
        Precision policy for the default inner solver: ``"fp32"``,
        ``"mixed"`` (default — fp32 storage with fp64 reductions), or a
        :class:`~repro.core.precision.PrecisionPolicy`.  Ignored when an
        explicit ``inner`` is supplied (its own policy governs).
    preconditioner:
        Forwarded to the default inner solver.
    criterion:
        The *outer* stopping criterion, checked against the true fp64
        residual; defaults to the paper's ``AbsoluteResidual(1e-10)``.
    inner_tol:
        Relative residual-reduction factor of the default inner solver.
    inner_max_iter:
        Iteration cap per inner solve.
    max_outer:
        Cap on outer correction sweeps.

    Notes
    -----
    Pass the matrix in **fp64**: the outer residual is evaluated in the
    matrix's own precision, so a double-precision operator is what lets
    refinement recover double accuracy from single-precision sweeps.
    """

    name = "refinement"

    def __init__(
        self,
        inner=None,
        *,
        precision: PrecisionPolicy | str = "mixed",
        preconditioner: BatchPreconditioner | str | None = None,
        criterion: StoppingCriterion | None = None,
        inner_tol: float = 1e-4,
        inner_max_iter: int = 200,
        max_outer: int = 20,
    ) -> None:
        if inner is None:
            inner = BatchBicgstab(
                preconditioner=preconditioner,
                criterion=RelativeResidual(inner_tol),
                max_iter=int(check_positive(inner_max_iter, "inner_max_iter")),
                precision=precision_policy(precision),
            )
        self.inner = inner
        self.precision = inner.precision or precision_policy(precision)
        self.criterion = criterion or AbsoluteResidual(1e-10)
        self.max_outer = int(check_positive(max_outer, "max_outer"))
        #: Outer correction sweeps of the most recent solve.
        self.last_outer_iterations = 0
        self._workspace: SolverWorkspace | None = None
        self._low_matrix = None
        self._low_pattern: tuple = ()
        self._r_low: np.ndarray | None = None

    # -- public API -----------------------------------------------------------

    def solve(
        self,
        matrix,
        b: np.ndarray,
        x0: np.ndarray | None = None,
        *,
        workspace: SolverWorkspace | None = None,
    ) -> SolveResult:
        """Refine ``A[k] x[k] = b[k]`` to the outer criterion's tolerance.

        The ``workspace`` (optional, e.g. the Picard arena) holds the fp64
        outer iterate and residual; the inner solver keeps its own cached
        low-precision workspace, so repeated same-shape solves allocate
        nothing.  ``result.iterations`` is the per-system total of *inner*
        iterations across all sweeps (the work metric comparable to a
        direct low-precision solve); the sweep count is available as
        :attr:`last_outer_iterations`.
        """
        shape: BatchShape = matrix.shape
        shape.require_square()
        b = as_value_array(b, "b", ndim=2)
        shape.compatible_vector(b, "b")

        if workspace is not None:
            if not workspace.matches(shape.num_batch, shape.num_rows, b.dtype):
                raise DimensionMismatch(
                    f"workspace is sized ({workspace.num_batch}, "
                    f"{workspace.num_rows}, {workspace.dtype}) but the batch "
                    f"needs ({shape.num_batch}, {shape.num_rows}, {b.dtype})"
                )
            ws = workspace
        else:
            ws = self._workspace
            if ws is None or not ws.matches(shape.num_batch, shape.num_rows, b.dtype):
                ws = SolverWorkspace(shape.num_batch, shape.num_rows, dtype=b.dtype)
                self._workspace = ws
        x = ws.vector("x")
        if x0 is None:
            x[...] = 0.0
        else:
            x0 = as_value_array(x0, "x0", ndim=2)
            shape.compatible_vector(x0, "x0")
            x[...] = x0
        r = ws.vector("r")

        low = self._low_matrix_for(matrix)
        r_low = self._get_r_low(shape, low.dtype, r)

        residual(matrix, x, b, out=r)
        res_norms = batch_norm2(r)
        self.criterion.initialize(batch_norm2(b), res_norms)
        converged = self.criterion.check(res_norms)
        iterations = np.zeros(shape.num_batch, dtype=np.int64)

        outer = 0
        while not converged.all() and outer < self.max_outer:
            outer += 1
            # Zero the residual rows of already-converged systems: the
            # inner relative criterion then freezes them at iteration 0
            # with a zero correction, so they are never perturbed.
            r[converged] = 0.0
            if r_low is not r:
                np.copyto(r_low, r, casting="same_kind")
            inner_result = self.inner.solve(low, r_low)
            iterations += inner_result.iterations
            x += inner_result.x
            residual(matrix, x, b, out=r)
            res_norms = batch_norm2(r)
            converged = self.criterion.check(res_norms)
        self.last_outer_iterations = outer

        return SolveResult(
            x=x.copy(),
            iterations=iterations,
            residual_norms=res_norms.copy(),
            converged=converged.copy(),
            solver=self.name,
            format=getattr(matrix, "format_name", "unknown"),
            health=derive_health(converged, res_norms),
        )

    # -- helpers --------------------------------------------------------------

    def _low_matrix_for(self, matrix):
        """The matrix in the inner storage precision, cached across solves."""
        storage = self.precision.storage_dtype
        if getattr(matrix, "dtype", None) == storage:
            return matrix
        cached = self._low_matrix
        pattern = _pattern_arrays(matrix)
        if (
            cached is not None
            and cached.shape == matrix.shape
            and getattr(cached, "format_name", None)
            == getattr(matrix, "format_name", None)
            and len(pattern) == len(self._low_pattern)
            and all(a is b for a, b in zip(pattern, self._low_pattern))
        ):
            np.copyto(cached.values, matrix.values, casting="same_kind")
            return cached
        low = matrix.astype(storage)
        self._low_matrix = low
        self._low_pattern = pattern
        return low

    def _get_r_low(self, shape: BatchShape, dtype, r: np.ndarray) -> np.ndarray:
        """Reused cast buffer for the inner right-hand side."""
        if np.dtype(dtype) == r.dtype:
            return r
        buf = self._r_low
        if buf is None or buf.shape != (shape.num_batch, shape.num_rows) or buf.dtype != dtype:
            buf = np.empty((shape.num_batch, shape.num_rows), dtype=dtype)
            self._r_low = buf
        return buf
