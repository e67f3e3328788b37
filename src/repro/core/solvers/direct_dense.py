"""Batched dense LU direct solver — the batched-dense related work.

Section III's first wave of batched GPU linear algebra was *dense*:
batched LU (``DGETRF``-style, Dong et al.), batched inversion, batched
dense BLAS.  Section II's motivation explicitly rules that line out for
the collision kernel: "For these sizes and bandwidth, using dense solvers
on the GPU is not enough to beat the gain obtained from exploiting the
banded nature of the matrix on the CPU."

This module supplies that baseline so the claim can be measured: a
from-scratch batched dense LU with partial pivoting, vectorised over the
batch exactly like the banded kernel (sequential column loop; per-column
pivot search, row swap and rank-1 update all batched), fused with the
right-hand-side updates.  Cubic flops — the point of the exercise.
"""

from __future__ import annotations

import numpy as np

from ..batch_dense import BatchDense, batch_norm2
from ..convert import to_format
from ..types import DTYPE, SolveResult

__all__ = ["BatchDenseLu", "dense_lu_solve"]


def dense_lu_solve(values: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a batch of dense systems by LU with partial pivoting.

    Parameters
    ----------
    values:
        Dense batch ``(nb, n, n)``; **overwritten** with the factors.
    b:
        Right-hand sides ``(nb, n)``; not modified.

    Notes
    -----
    Gaussian elimination fused with the RHS update (one pass, like the
    banded kernel).  Pivot rows are chosen per system; all updates inside
    the column loop are vectorised over the batch.
    """
    a = values
    nb, n, n2 = a.shape
    if n != n2:
        raise ValueError(f"systems must be square, got {n}x{n2}")
    rhs = np.array(b, dtype=DTYPE, copy=True)
    if rhs.shape != (nb, n):
        raise ValueError(f"b must have shape ({nb}, {n}), got {rhs.shape}")

    batch_ix = np.arange(nb)

    for j in range(n):
        # Per-system pivot among rows j..n-1 of column j.
        p = j + np.argmax(np.abs(a[:, j:, j]), axis=1)
        piv = a[batch_ix, p, j]
        if np.any(piv == 0.0):
            bad = int(np.flatnonzero(piv == 0.0)[0])
            raise np.linalg.LinAlgError(
                f"singular system {bad} (zero pivot at column {j})"
            )
        swap = p != j
        if np.any(swap):
            rows_p = a[batch_ix, p, :].copy()
            rows_j = a[:, j, :].copy()
            mask = swap[:, None]
            a[batch_ix, p, :] = np.where(mask, rows_j, rows_p)
            a[:, j, :] = np.where(mask, rows_p, rows_j)
            rp = rhs[batch_ix, p].copy()
            rj = rhs[:, j].copy()
            rhs[batch_ix, p] = np.where(swap, rj, rp)
            rhs[:, j] = np.where(swap, rp, rj)

        if j < n - 1:
            mult = a[:, j + 1:, j] / a[:, j, j][:, None]
            a[:, j + 1:, j + 1:] -= mult[:, :, None] * a[:, j, j + 1:][:, None, :]
            a[:, j + 1:, j] = 0.0
            rhs[:, j + 1:] -= mult * rhs[:, j][:, None]

    # Back substitution on the upper triangle.
    x = np.empty((nb, n), dtype=DTYPE)
    for j in range(n - 1, -1, -1):
        acc = rhs[:, j]
        if j < n - 1:
            acc = acc - np.einsum("bk,bk->b", a[:, j, j + 1:], x[:, j + 1:])
        x[:, j] = acc / a[:, j, j]
    return x


class BatchDenseLu:
    """Batched dense direct solver with the common ``solve`` interface.

    Accepts any batch-matrix format; sparse inputs are densified first —
    which is, deliberately, part of what makes this baseline lose on
    sparse problems.
    """

    name = "dense-lu"

    def solve(self, matrix, b: np.ndarray, x0: np.ndarray | None = None) -> SolveResult:
        """Solve exactly; ``x0`` is accepted and ignored (direct solver)."""
        dense: BatchDense = to_format(matrix, "dense")
        b = np.asarray(b, dtype=np.float64)
        x = dense_lu_solve(dense.values.copy(), b)
        nb = x.shape[0]
        return SolveResult(
            x=x,
            iterations=np.ones(nb, dtype=np.int64),
            residual_norms=batch_norm2(b - dense.apply(x)),
            converged=np.ones(nb, dtype=bool),
            solver=self.name,
            format="dense",
        )
