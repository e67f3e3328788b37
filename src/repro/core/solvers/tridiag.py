"""Batched tridiagonal direct solver — the related-work baseline.

Section III surveys the batched *tridiagonal* solvers that existed before
this work: NVIDIA's ``gtsv2StridedBatch`` (cyclic reduction) and
cuThomasBatch-style kernels where **one GPU thread solves one entire
system** with the Thomas algorithm, batch storage interleaved for
coalescing.  They are exact, robust — and specialised: they cannot exploit
early stopping, initial guesses, or general sparsity.

This module provides that baseline:

* :func:`thomas_solve` — the Thomas algorithm (no pivoting; requires the
  usual diagonal-dominance/SPD-style conditions), vectorised over the
  batch exactly like the thread-per-system GPU kernel (the sequential
  sweep is the per-thread loop; the batch axis is the SIMT axis);
* :class:`BatchTridiag` — a format-level container with the *interleaved*
  value layout the papers use (``dl/d/du`` arrays of shape ``(n, nb)``
  so consecutive threads read consecutive addresses);
* :class:`BatchThomas` — the solver with the common ``solve`` interface,
  accepting any batch matrix whose pattern is tridiagonal.
"""

from __future__ import annotations

import numpy as np

from ...utils.banded import detect_bandwidths
from ..batch_dense import batch_norm2
from ..convert import to_format
from ..types import DTYPE, SolveResult

__all__ = ["BatchTridiag", "BatchThomas", "thomas_solve", "extract_tridiagonal"]


def extract_tridiagonal(matrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Extract ``(dl, d, du)`` bands from a batch matrix.

    Raises if the shared pattern has entries outside the three central
    diagonals.  Shapes: ``dl``/``du`` are ``(num_batch, n-1)``, ``d`` is
    ``(num_batch, n)``.
    """
    csr = to_format(matrix, "csr")
    bw = detect_bandwidths(csr)
    if bw.kl > 1 or bw.ku > 1:
        raise ValueError(
            f"matrix is not tridiagonal: bandwidths kl={bw.kl}, ku={bw.ku}"
        )
    n, nb = csr.num_rows, csr.num_batch
    d = np.zeros((nb, n), dtype=DTYPE)
    dl = np.zeros((nb, max(n - 1, 0)), dtype=DTYPE)
    du = np.zeros((nb, max(n - 1, 0)), dtype=DTYPE)

    rows = np.repeat(np.arange(n, dtype=np.int64), csr.nnz_per_row())
    cols = csr.col_idxs.astype(np.int64)
    off = cols - rows
    d[:, rows[off == 0]] = csr.values[:, off == 0]
    dl[:, rows[off == -1] - 1] = csr.values[:, off == -1]
    du[:, rows[off == 1]] = csr.values[:, off == 1]
    return dl, d, du


def thomas_solve(
    dl: np.ndarray, d: np.ndarray, du: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Thomas algorithm over a batch of tridiagonal systems.

    Parameters
    ----------
    dl, d, du:
        Sub-, main- and super-diagonals, shapes ``(nb, n-1)``, ``(nb, n)``,
        ``(nb, n-1)``.
    b:
        Right-hand sides ``(nb, n)``; not modified.

    Notes
    -----
    No pivoting (as in the GPU kernels it models): a zero pivot raises.
    The elimination loop runs over the system dimension; every statement
    inside is vectorised over the batch — the exact dual of the
    thread-per-system kernel where the batch is the SIMT axis.
    """
    d = np.asarray(d, dtype=DTYPE)
    nb, n = d.shape
    if dl.shape != (nb, n - 1) or du.shape != (nb, n - 1):
        raise ValueError(
            f"band shapes inconsistent: dl {dl.shape}, d {d.shape}, "
            f"du {du.shape}"
        )
    if b.shape != (nb, n):
        raise ValueError(f"b must have shape ({nb}, {n}), got {b.shape}")

    # Forward sweep: c'_i = du_i / (d_i - dl_{i-1} c'_{i-1}), likewise rhs.
    c_prime = np.zeros((nb, max(n - 1, 0)), dtype=DTYPE)
    r_prime = np.zeros((nb, n), dtype=DTYPE)

    denom = d[:, 0].copy()
    if np.any(denom == 0.0):
        raise np.linalg.LinAlgError("zero pivot at row 0 (Thomas, no pivoting)")
    if n > 1:
        c_prime[:, 0] = du[:, 0] / denom
    r_prime[:, 0] = b[:, 0] / denom
    for i in range(1, n):
        denom = d[:, i] - dl[:, i - 1] * c_prime[:, i - 1]
        if np.any(denom == 0.0):
            raise np.linalg.LinAlgError(
                f"zero pivot at row {i} (Thomas, no pivoting)"
            )
        if i < n - 1:
            c_prime[:, i] = du[:, i] / denom
        r_prime[:, i] = (b[:, i] - dl[:, i - 1] * r_prime[:, i - 1]) / denom

    # Back substitution.
    x = np.empty((nb, n), dtype=DTYPE)
    x[:, n - 1] = r_prime[:, n - 1]
    for i in range(n - 2, -1, -1):
        x[:, i] = r_prime[:, i] - c_prime[:, i] * x[:, i + 1]
    return x


class BatchTridiag:
    """Batch of tridiagonal matrices in the interleaved GPU layout.

    The three band arrays are stored transposed — shape ``(n, num_batch)``
    — so that "thread" ``k`` (batch index) reads consecutive addresses as
    the elimination walks the rows: the coalesced interleaved storage of
    cuThomasBatch / ``gtsv2StridedBatch``.
    """

    format_name = "tridiag"

    def __init__(self, dl: np.ndarray, d: np.ndarray, du: np.ndarray):
        d = np.ascontiguousarray(np.asarray(d, dtype=DTYPE).T)
        dl = np.ascontiguousarray(np.asarray(dl, dtype=DTYPE).T)
        du = np.ascontiguousarray(np.asarray(du, dtype=DTYPE).T)
        n, nb = d.shape
        if dl.shape != (max(n - 1, 0), nb) or du.shape != (max(n - 1, 0), nb):
            raise ValueError("band shapes inconsistent with the diagonal")
        self._dl, self._d, self._du = dl, d, du

    @classmethod
    def from_matrix(cls, matrix) -> "BatchTridiag":
        """Build from any batch matrix with a tridiagonal pattern."""
        return cls(*extract_tridiagonal(matrix))

    @property
    def num_batch(self) -> int:
        return self._d.shape[1]

    @property
    def num_rows(self) -> int:
        return self._d.shape[0]

    def bands(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Band arrays back in ``(num_batch, ...)`` orientation."""
        return self._dl.T.copy(), self._d.T.copy(), self._du.T.copy()

    def storage_bytes(self) -> int:
        """Value storage (no index metadata at all — the format's perk)."""
        return self._dl.nbytes + self._d.nbytes + self._du.nbytes

    def apply(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Batched tridiagonal mat-vec."""
        nb, n = self.num_batch, self.num_rows
        if x.shape != (nb, n):
            raise ValueError(f"x must have shape ({nb}, {n}), got {x.shape}")
        if out is None:
            out = np.empty((nb, n), dtype=DTYPE)
        d, dl, du = self._d.T, self._dl.T, self._du.T
        out[...] = d * x
        if n > 1:
            out[:, 1:] += dl * x[:, :-1]
            out[:, :-1] += du * x[:, 1:]
        return out


class BatchThomas:
    """Batched Thomas direct solver with the common ``solve`` interface."""

    name = "thomas"

    def solve(self, matrix, b: np.ndarray, x0: np.ndarray | None = None) -> SolveResult:
        """Solve exactly; ``x0`` is accepted and ignored (direct solver)."""
        tri = (
            matrix
            if isinstance(matrix, BatchTridiag)
            else BatchTridiag.from_matrix(matrix)
        )
        dl, d, du = tri.bands()
        b = np.asarray(b, dtype=DTYPE)
        x = thomas_solve(dl, d, du, b)
        nb = x.shape[0]
        return SolveResult(
            x=x,
            iterations=np.ones(nb, dtype=np.int64),
            residual_norms=batch_norm2(b - tri.apply(x)),
            converged=np.ones(nb, dtype=bool),
            solver=self.name,
            format="tridiag",
        )
