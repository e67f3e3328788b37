"""Banded-matrix storage utilities (LAPACK-style band layouts).

The XGC collision matrices are banded (a 9-point stencil on an
``nx``-by-``ny`` grid gives ``kl = ku = nx + 1``), and the CPU baseline the
paper compares against is LAPACK's banded solver ``dgbsv``.  This module
provides:

* bandwidth detection for the shared sparsity pattern of a batch,
* conversion from any batch format (through its stored entries) to a
  batched *row-band* working layout ``W[k, i, c] = A[k][i, i - kl_work + c]`` used by
  the banded LU/QR kernels (``kl_work = 2*kl`` leaves headroom for pivoting
  fill, mirroring the extra ``kl`` rows of LAPACK's ``AB`` storage),
* conversion to the classical LAPACK ``gbsv`` column layout for
  interoperability tests against ``scipy.linalg.solve_banded``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.types import DTYPE

__all__ = ["Bandwidths", "detect_bandwidths", "BatchBanded", "csr_to_banded"]


@dataclass(frozen=True)
class Bandwidths:
    """Lower (``kl``) and upper (``ku``) bandwidths of a sparsity pattern."""

    kl: int
    ku: int

    @property
    def width(self) -> int:
        """Stored diagonals: ``kl + ku + 1``."""
        return self.kl + self.ku + 1


def detect_bandwidths(matrix) -> Bandwidths:
    """Bandwidths of a batch's shared pattern (pattern-based, not value-based)."""
    rows, cols, _ = matrix.entries()
    if rows.size == 0:
        return Bandwidths(0, 0)
    diff = cols - rows
    return Bandwidths(int(max(0, -diff.min())), int(max(0, diff.max())))


class BatchBanded:
    """A batch of banded matrices in the row-band working layout.

    ``work[k, i, c]`` stores ``A[k][i, i - kl + c]`` for
    ``c in [0, kl + fill + ku]``, where ``fill`` extra upper diagonals are
    reserved for pivoting fill-in.  Out-of-matrix positions are zero.

    Attributes
    ----------
    work:
        The working array, shape ``(num_batch, n, kl + fill + ku + 1)``.
    kl, ku:
        True bandwidths of the stored matrix.
    fill:
        Reserved extra upper diagonals (``kl`` for LU with partial
        pivoting, 0 when no pivoting fill can occur).
    """

    format_name = "banded"

    def __init__(self, work: np.ndarray, kl: int, ku: int, fill: int):
        if work.ndim != 3:
            raise ValueError("work must be 3-D (num_batch, n, width)")
        expected = kl + fill + ku + 1
        if work.shape[2] != expected:
            raise ValueError(
                f"work width {work.shape[2]} != kl+fill+ku+1 = {expected}"
            )
        self.work = np.ascontiguousarray(work, dtype=DTYPE)
        self.kl = int(kl)
        self.ku = int(ku)
        self.fill = int(fill)

    @property
    def num_batch(self) -> int:
        return self.work.shape[0]

    @property
    def num_rows(self) -> int:
        return self.work.shape[1]

    @property
    def diag_col(self) -> int:
        """Working-layout column index that holds the main diagonal."""
        return self.kl

    def entry_dense(self, batch_index: int) -> np.ndarray:
        """Materialise one batch entry as a dense 2-D array."""
        n = self.num_rows
        out = np.zeros((n, n), dtype=DTYPE)
        width = self.work.shape[2]
        for c in range(width):
            offset = c - self.kl  # column = row + offset
            i0 = max(0, -offset)
            i1 = min(n, n - offset)
            if i1 > i0:
                rows = np.arange(i0, i1)
                out[rows, rows + offset] = self.work[batch_index, rows, c]
        return out

    def apply(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Batched banded mat-vec ``out[k] = A[k] @ x[k]``.

        One vectorised pass per stored diagonal (``kl + ku + 1`` passes;
        fill diagonals are all-zero before factorisation and are skipped).
        """
        n = self.num_rows
        if x.shape != (self.num_batch, n):
            raise ValueError(
                f"x must have shape ({self.num_batch}, {n}), got {x.shape}"
            )
        if out is None:
            out = np.zeros((self.num_batch, n), dtype=DTYPE)
        else:
            out[...] = 0.0
        for c in range(self.kl + self.ku + 1):
            offset = c - self.kl
            i0 = max(0, -offset)
            i1 = min(n, n - offset)
            if i1 > i0:
                rows = np.arange(i0, i1)
                out[:, rows] += self.work[:, rows, c] * x[:, rows + offset]
        return out

    def to_lapack_ab(self, batch_index: int) -> np.ndarray:
        """One entry in LAPACK ``solve_banded``/(``l_and_u``) layout.

        Returns ``ab`` with shape ``(kl + ku + 1, n)`` where
        ``ab[ku + i - j, j] = A[i, j]`` — directly usable with
        ``scipy.linalg.solve_banded((kl, ku), ab, b)``.
        """
        n = self.num_rows
        ab = np.zeros((self.kl + self.ku + 1, n), dtype=DTYPE)
        for c in range(self.kl + self.ku + 1):
            offset = c - self.kl  # band offset: column = row + offset
            wcol = c  # fill columns live past kl + ku in the working layout
            i0 = max(0, -offset)
            i1 = min(n, n - offset)
            if i1 > i0:
                rows = np.arange(i0, i1)
                cols = rows + offset
                ab[self.ku - offset, cols] = self.work[batch_index, rows, wcol]
        return ab


def csr_to_banded(matrix, *, fill: int | None = None) -> BatchBanded:
    """Convert a shared-pattern batch (any format) to the banded working layout.

    Parameters
    ----------
    matrix:
        Source batch; its stored pattern determines ``kl``/``ku``.
    fill:
        Extra upper diagonals to reserve.  Defaults to ``kl`` (what LU with
        partial pivoting can generate, matching LAPACK's ``AB`` headroom).
    """
    bw = detect_bandwidths(matrix)
    if fill is None:
        fill = bw.kl
    n = matrix.num_rows
    width = bw.kl + fill + bw.ku + 1
    work = np.zeros((matrix.num_batch, n, width), dtype=DTYPE)

    rows, cols, index = matrix.entries()
    work[:, rows, cols - rows + bw.kl] = matrix.values[(slice(None), *index)]
    return BatchBanded(work, bw.kl, bw.ku, fill)
