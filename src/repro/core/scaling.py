"""Batched matrix equilibration (diagonal scaling).

Iterative solvers on poorly scaled systems waste iterations; the standard
remedy is to equilibrate, solving ``(D_r A D_c) y = D_r b`` and recovering
``x = D_c y``.  For batched systems the scaling is per system — one
diagonal pair per batch entry, computed from that entry's values on the
shared pattern.

Two policies are provided:

* :func:`row_scaling` — scale every row by the inverse of its infinity
  norm (``D_c = I``); cheap and often enough;
* :func:`symmetric_scaling` — one Jacobi-style sweep scaling rows *and*
  columns by inverse square roots of the diagonal magnitudes (useful for
  nearly-symmetric problems).

The returned :class:`ScaledSystem` carries everything needed to solve and
un-scale; the matrix object it holds is a new batch sharing the original
pattern arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .batch_csr import BatchCsr
from .convert import to_format
from .types import DTYPE, InvalidFormatError

__all__ = ["ScaledSystem", "row_scaling", "symmetric_scaling"]


@dataclass(frozen=True)
class ScaledSystem:
    """An equilibrated batch system.

    Attributes
    ----------
    matrix:
        The scaled batch matrix ``D_r A D_c`` (CSR).
    row_scale:
        ``(num_batch, n)`` row factors ``D_r``.
    col_scale:
        ``(num_batch, n)`` column factors ``D_c``.
    """

    matrix: BatchCsr
    row_scale: np.ndarray
    col_scale: np.ndarray

    def scale_rhs(self, b: np.ndarray) -> np.ndarray:
        """Transform a right-hand side: ``b' = D_r b``."""
        return b * self.row_scale

    def unscale_solution(self, y: np.ndarray) -> np.ndarray:
        """Recover the original unknowns: ``x = D_c y``."""
        return y * self.col_scale

    def solve_with(self, solver, b: np.ndarray, x0: np.ndarray | None = None):
        """Convenience: solve the scaled system and return the unscaled
        :class:`~repro.core.types.SolveResult` (solution transformed,
        diagnostics of the scaled solve kept)."""
        y0 = None if x0 is None else x0 / self.col_scale
        res = solver.solve(self.matrix, self.scale_rhs(b), x0=y0)
        res.x = self.unscale_solution(res.x)
        return res


def _scaled(csr: BatchCsr, row_scale: np.ndarray, col_scale: np.ndarray) -> BatchCsr:
    rows, cols, _ = csr.entries()
    return csr.with_values(csr.values * row_scale[:, rows] * col_scale[:, cols])


def row_scaling(matrix) -> ScaledSystem:
    """Equilibrate rows to unit infinity norm, per system.

    Rows that are entirely zero in a system are left unscaled (factor 1).
    """
    csr = to_format(matrix, "csr")
    rows, _, _ = csr.entries()
    inf_norm = np.zeros((csr.num_batch, csr.num_rows), dtype=DTYPE)
    np.maximum.at(inf_norm, (slice(None), rows), np.abs(csr.values))
    # Lone zero rows: leave them alone rather than dividing by zero.
    safe = np.where(inf_norm > 0.0, inf_norm, 1.0)
    row_scale = 1.0 / safe
    col_scale = np.ones_like(row_scale)
    return ScaledSystem(_scaled(csr, row_scale, col_scale), row_scale, col_scale)


def symmetric_scaling(matrix) -> ScaledSystem:
    """Jacobi-style symmetric equilibration: ``D = diag(|a_ii|)^{-1/2}``.

    Requires non-zero diagonals (like the Jacobi preconditioner).  After
    scaling, every diagonal entry has magnitude one.
    """
    csr = to_format(matrix, "csr")
    diag = csr.diagonal()
    if np.any(diag == 0.0):
        raise InvalidFormatError(
            "symmetric scaling requires non-zero diagonals"
        )
    scale = 1.0 / np.sqrt(np.abs(diag))
    return ScaledSystem(_scaled(csr, scale, scale), scale.copy(), scale.copy())
