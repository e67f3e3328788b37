"""Batched banded QR direct solver — the cuSolver ``csrqrsvBatched`` stand-in.

cuSolver's batched sparse QR is the only vendor-provided batched sparse
solver for general matrices the paper could compare against.  Like it, this
solver computes an *exact* factorisation (Givens QR here, orthogonal and
unconditionally stable — no pivoting needed) and cannot exploit early
stopping or an initial guess, which is precisely why Fig. 6 shows it losing
to the iterative solver by 10–30x on well-conditioned batches.

The Givens sweep eliminates each subdiagonal entry by rotating adjacent row
pairs; rotations are vectorised over the batch, the ``(column, subdiagonal)``
loops are sequential.  R's bandwidth grows to ``kl + ku``, matching the
``fill = kl`` headroom of the working layout.
"""

from __future__ import annotations

import numpy as np

from ...utils.banded import BatchBanded, csr_to_banded
from ..batch_dense import batch_norm2
from ..convert import to_format
from ..types import SolveResult

__all__ = ["BatchBandedQr", "banded_qr_solve"]


def banded_qr_solve(banded: BatchBanded, b: np.ndarray) -> np.ndarray:
    """Solve every banded system by Givens QR.

    The working array is overwritten with R; ``Q^T`` is applied to the
    right-hand sides on the fly.
    """
    if banded.fill < banded.kl:
        raise ValueError(
            f"QR fill-in needs fill >= kl, got fill={banded.fill} kl={banded.kl}"
        )
    W = banded.work
    nb, n, width = W.shape
    kl = banded.kl
    c = width - kl  # active row length: columns j .. j+c-1
    rhs = np.array(b, dtype=W.dtype, copy=True)
    if rhs.shape != (nb, n):
        raise ValueError(f"b must have shape ({nb}, {n}), got {rhs.shape}")

    for j in range(n):
        m = min(kl, n - 1 - j)
        # Rotate rows (i-1, i) upward so each rotation only involves rows
        # whose column-j entries are the two being combined.
        for d in range(m, 0, -1):
            i = j + d
            # Entry (i, j) sits at W[:, i, kl - d]; entry (i-1, j) at
            # W[:, i-1, kl - d + 1].  During the sweep, fill extends every
            # involved row to column j + kl + ku, so both slices span the
            # full c = kl + ku + 1 matrix columns j .. j+kl+ku.
            a = W[:, i - 1, kl - d + 1: kl - d + 1 + c]
            bb = W[:, i, kl - d: kl - d + c]
            f = W[:, i - 1, kl - d + 1]
            g = W[:, i, kl - d]
            denom = np.hypot(f, g)
            safe = denom != 0.0
            cs = np.ones_like(denom)
            sn = np.zeros_like(denom)
            np.divide(f, denom, out=cs, where=safe)
            np.divide(g, denom, out=sn, where=safe)

            new_a = cs[:, None] * a + sn[:, None] * bb
            new_b = -sn[:, None] * a + cs[:, None] * bb
            a[...] = new_a
            bb[...] = new_b
            bb[:, 0] = 0.0  # eliminated entry, exactly

            r0 = rhs[:, i - 1].copy()
            r1 = rhs[:, i]
            rhs[:, i - 1] = cs * r0 + sn * r1
            rhs[:, i] = -sn * r0 + cs * r1

    # Back substitution on R (bandwidth kl + ku, i.e. the full active row).
    x = np.zeros((nb, n + c), dtype=W.dtype)
    for j in range(n - 1, -1, -1):
        upper = W[:, j, kl + 1:]
        acc = rhs[:, j] - np.einsum("bt,bt->b", upper, x[:, j + 1: j + c])
        piv = W[:, j, kl]
        if np.any(piv == 0.0):
            bad = int(np.flatnonzero(piv == 0.0)[0])
            raise np.linalg.LinAlgError(
                f"singular R at column {j} in system {bad}"
            )
        x[:, j] = acc / piv
    return x[:, :n]


class BatchBandedQr:
    """Batched QR direct solver with the common ``solve`` interface."""

    name = "sparse-qr"

    def solve(self, matrix, b: np.ndarray, x0: np.ndarray | None = None) -> SolveResult:
        """Solve the batch by QR.  ``x0`` is accepted and ignored."""
        if isinstance(matrix, BatchBanded):
            banded = BatchBanded(
                matrix.work.copy(), matrix.kl, matrix.ku, matrix.fill
            )
            source = matrix
        else:
            source = to_format(matrix, "csr")
            banded = csr_to_banded(source)
        b = np.asarray(b, dtype=np.float64)
        x = banded_qr_solve(banded, b)
        nb = x.shape[0]
        return SolveResult(
            x=x,
            iterations=np.ones(nb, dtype=np.int64),
            residual_norms=batch_norm2(b - source.apply(x)),
            converged=np.ones(nb, dtype=bool),
            solver=self.name,
            format="banded",
        )
