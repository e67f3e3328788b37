"""Batched banded direct solver — the ``dgbsv`` stand-in.

This is a from-scratch implementation of what LAPACK's ``dgbsv`` does:
Gaussian elimination with partial pivoting on band storage, fused with the
right-hand-side updates (factor-and-solve in one pass, exactly how the XGC
proxy app calls ``dgbsv`` once per matrix per Picard iteration).

The elimination is vectorised over the batch: the column loop is sequential
(as it must be), but pivot selection, row swaps, and the rank-1 band update
inside each column step operate on every system of the batch at once via
advanced indexing.  Per-system pivot choices are honoured — different
systems may pick different pivot rows at the same step.

The solver accepts any batch-matrix format and converts it through
:func:`repro.utils.banded.csr_to_banded` (pattern-detected bandwidths,
``kl`` extra diagonals of pivot fill headroom).
"""

from __future__ import annotations

import numpy as np

from ...utils.banded import BatchBanded, csr_to_banded
from ..convert import to_format
from ..types import SolveResult
from ..batch_dense import batch_norm2

__all__ = ["BatchBandedLu", "banded_lu_solve"]


class SingularBatchError(np.linalg.LinAlgError):
    """Raised when at least one system in the batch is numerically singular."""


def banded_lu_solve(banded: BatchBanded, b: np.ndarray) -> np.ndarray:
    """Solve every banded system in the batch by LU with partial pivoting.

    Parameters
    ----------
    banded:
        Batch in the row-band working layout with at least ``kl`` fill
        diagonals reserved.  **The working array is overwritten** with the
        factors, as in LAPACK.
    b:
        Right-hand sides ``(num_batch, n)``; not modified.

    Returns
    -------
    Solutions ``(num_batch, n)``.
    """
    if banded.fill < banded.kl:
        raise ValueError(
            f"pivoting needs fill >= kl, got fill={banded.fill} kl={banded.kl}"
        )
    W = banded.work
    nb, n, width = W.shape
    kl = banded.kl
    c = width - kl  # columns j..j+fill+ku of the active row
    rhs = np.array(b, dtype=W.dtype, copy=True)
    if rhs.shape != (nb, n):
        raise ValueError(f"b must have shape ({nb}, {n}), got {rhs.shape}")

    batch_ix = np.arange(nb)[:, None]
    col_range = np.arange(c)

    for j in range(n):
        m = min(kl, n - 1 - j)  # candidate subdiagonal rows

        if m > 0:
            # Column-j entries of rows j..j+m live at W[:, j+d, kl-d].
            d = np.arange(m + 1)
            cand = W[:, j + d, kl - d]  # (nb, m+1)
            p = np.argmax(np.abs(cand), axis=1)  # per-system pivot offset

            swap = p > 0
            if np.any(swap):
                # Swap row j with row j+p (columns j..j+c-1 of each).
                idx_row = j + p
                idx_col = (kl - p)[:, None] + col_range
                seg_piv = W[batch_ix[:, 0][:, None], idx_row[:, None], idx_col]
                seg_j = W[:, j, kl:].copy()
                mask = swap[:, None]
                W[batch_ix[:, 0][:, None], idx_row[:, None], idx_col] = np.where(
                    mask, seg_j, seg_piv
                )
                W[:, j, kl:] = np.where(mask, seg_piv, seg_j)
                rj = rhs[:, j].copy()
                rp = rhs[batch_ix[:, 0], idx_row]
                rhs[batch_ix[:, 0], idx_row] = np.where(swap, rj, rp)
                rhs[:, j] = np.where(swap, rp, rj)

        piv = W[:, j, kl]
        if np.any(piv == 0.0):
            bad = int(np.flatnonzero(piv == 0.0)[0])
            raise SingularBatchError(
                f"zero pivot at column {j} in system {bad}"
            )

        if m > 0:
            # Eliminate rows j+1..j+m against row j (vectorised over d).
            d2 = np.arange(1, m + 1)
            row_idx = j + d2  # (m,)
            col_idx = (kl - d2)[:, None] + col_range  # (m, c)
            block = W[:, row_idx[:, None], col_idx]  # (nb, m, c)
            mult = block[:, :, 0] / piv[:, None]  # (nb, m)
            block -= mult[:, :, None] * W[:, j, kl:][:, None, :]
            block[:, :, 0] = 0.0
            W[:, row_idx[:, None], col_idx] = block
            rhs[:, row_idx] -= mult * rhs[:, j][:, None]

    # Back substitution on the (fill-extended) upper triangle.
    x = np.zeros((nb, n + c), dtype=W.dtype)  # padded tail avoids bounds checks
    for j in range(n - 1, -1, -1):
        upper = W[:, j, kl + 1:]  # columns j+1 .. j+c-1
        acc = rhs[:, j] - np.einsum("bt,bt->b", upper, x[:, j + 1: j + c])
        x[:, j] = acc / W[:, j, kl]
    return x[:, :n]


class BatchBandedLu:
    """Batched banded direct solver with the common ``solve`` interface.

    Mirrors how the proxy app uses ``dgbsv``: one factor-and-solve per
    system, full machine-precision accuracy, no tuning knobs.
    """

    name = "banded-lu"

    def solve(self, matrix, b: np.ndarray, x0: np.ndarray | None = None) -> SolveResult:
        """Solve the batch directly.  ``x0`` is accepted and ignored
        (direct solvers cannot exploit an initial guess — one of the
        paper's arguments for iterative solvers)."""
        matrix.shape.require_square()
        csr = to_format(matrix, "csr")
        b = np.asarray(b, dtype=np.float64)
        x = banded_lu_solve(csr_to_banded(csr), b)
        res_norms = batch_norm2(b - csr.apply(x))
        nb = x.shape[0]
        return SolveResult(
            x=x,
            iterations=np.ones(nb, dtype=np.int64),
            residual_norms=res_norms,
            converged=np.ones(nb, dtype=bool),
            solver=self.name,
            format="banded",
        )
