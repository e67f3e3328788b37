"""Conversions between batch-matrix formats.

All conversions preserve the stored sparsity pattern exactly (including
explicitly-stored zeros) except ``*_to_dense`` which materialises, and
``dense_to_*`` which drops entries that are zero in *every* system (union
pattern).  Round trips ``csr -> ell -> csr`` and ``csr -> dense -> csr``
on matrices whose stored entries are non-zero are exact.

DIA is the one format that widens the pattern: ``*_to_dia`` stores every
*diagonal* that carries at least one entry, so positions on a stored
diagonal that the source pattern skipped become explicit zeros, and
``dia_to_csr``/``dia_to_ell`` report the full in-band pattern back.
Values and matrix-vector products round-trip exactly either way.
"""

from __future__ import annotations

import numpy as np

from .batch_csr import BatchCsr
from .batch_dense import BatchDense
from .batch_dia import BatchDia
from .batch_ell import PAD_COL, BatchEll
from .types import INDEX_DTYPE

__all__ = [
    "csr_to_ell",
    "ell_to_csr",
    "csr_to_dense",
    "ell_to_dense",
    "dense_to_csr",
    "dense_to_ell",
    "csr_to_dia",
    "dia_to_csr",
    "tridiag_to_dia",
    "ell_to_dia",
    "dia_to_ell",
    "dia_to_dense",
    "dense_to_dia",
    "to_format",
]


def csr_to_ell(matrix: BatchCsr) -> BatchEll:
    """Convert shared-pattern CSR to shared-pattern ELL.

    ``max_nnz_row`` becomes the maximum row length of the CSR pattern; all
    shorter rows are padded.
    """
    nnz_row = matrix.nnz_per_row()
    max_nnz_row = max(int(nnz_row.max(initial=0)), 1)
    num_rows = matrix.num_rows

    col_idxs = np.full((max_nnz_row, num_rows), PAD_COL, dtype=INDEX_DTYPE)
    values = np.zeros((matrix.num_batch, max_nnz_row, num_rows), dtype=matrix.dtype)

    rows = np.repeat(np.arange(num_rows, dtype=np.int64), nnz_row)
    slot = np.arange(rows.size, dtype=np.int64) - matrix.row_ptrs[:-1].astype(np.int64)[rows]
    col_idxs[slot, rows] = matrix.col_idxs
    values[:, slot, rows] = matrix.values
    return BatchEll(matrix.num_cols, col_idxs, values, check=False)


def ell_to_csr(matrix: BatchEll) -> BatchCsr:
    """Convert shared-pattern ELL to shared-pattern CSR (padding dropped)."""
    valid = matrix.col_idxs != PAD_COL
    slot, rows = np.nonzero(valid)
    # CSR needs row-major, column-sorted entry order within each row.
    cols = matrix.col_idxs[slot, rows]
    order = np.lexsort((cols, rows))
    rows_o, cols_o = rows[order], cols[order]
    vals = matrix.values[:, slot[order], rows_o]

    row_counts = np.bincount(rows_o, minlength=matrix.num_rows)
    row_ptrs = np.zeros(matrix.num_rows + 1, dtype=INDEX_DTYPE)
    np.cumsum(row_counts, out=row_ptrs[1:])
    return BatchCsr(matrix.num_cols, row_ptrs, cols_o.astype(INDEX_DTYPE), vals, check=False)


def csr_to_dense(matrix: BatchCsr) -> BatchDense:
    """Materialise a CSR batch as dense."""
    out = np.zeros((matrix.num_batch, matrix.num_rows, matrix.num_cols), dtype=matrix.dtype)
    rows = np.repeat(np.arange(matrix.num_rows, dtype=np.int64), matrix.nnz_per_row())
    out[:, rows, matrix.col_idxs] = matrix.values
    return BatchDense(out)


def ell_to_dense(matrix: BatchEll) -> BatchDense:
    """Materialise an ELL batch as dense."""
    out = np.zeros((matrix.num_batch, matrix.num_rows, matrix.num_cols), dtype=matrix.dtype)
    slot, rows = np.nonzero(matrix.col_idxs != PAD_COL)
    cols = matrix.col_idxs[slot, rows]
    out[:, rows, cols] = matrix.values[:, slot, rows]
    return BatchDense(out)


def dense_to_csr(matrix: BatchDense, *, tol: float = 0.0) -> BatchCsr:
    """Compress a dense batch to CSR with the union sparsity pattern."""
    return BatchCsr.from_dense(matrix.values, tol=tol)


def dense_to_ell(matrix: BatchDense, *, tol: float = 0.0) -> BatchEll:
    """Compress a dense batch to ELL with the union sparsity pattern."""
    return BatchEll.from_dense(matrix.values, tol=tol)


def csr_to_dia(matrix: BatchCsr) -> BatchDia:
    """Convert shared-pattern CSR to shared-offset DIA.

    One band per distinct ``col - row`` in the pattern; in-band positions
    the CSR pattern skipped (e.g. the boundary holes of the XGC stencil)
    become explicit zeros.
    """
    rows = np.repeat(
        np.arange(matrix.num_rows, dtype=np.int64), matrix.nnz_per_row()
    )
    diag_of = matrix.col_idxs.astype(np.int64) - rows
    offsets = np.unique(diag_of)
    if offsets.size == 0:
        offsets = np.zeros(1, dtype=np.int64)
    bands = np.zeros(
        (matrix.num_batch, offsets.size, matrix.num_rows), dtype=matrix.dtype
    )
    slot = np.searchsorted(offsets, diag_of)
    bands[:, slot, rows] = matrix.values
    return BatchDia(matrix.num_cols, offsets, bands, check=False)


def _dia_entries(matrix: BatchDia):
    """All in-band (rows, cols, values) of a DIA batch, CSR entry order."""
    rows_parts, cols_parts, slots = [], [], []
    for k, d, lo, hi in matrix._spans:
        if lo >= hi:
            continue
        r = np.arange(lo, hi, dtype=np.int64)
        rows_parts.append(r)
        cols_parts.append(r + d)
        slots.append(np.full(r.size, k, dtype=np.int64))
    rows = np.concatenate(rows_parts)
    cols = np.concatenate(cols_parts)
    slot = np.concatenate(slots)
    order = np.lexsort((cols, rows))
    rows, cols, slot = rows[order], cols[order], slot[order]
    return rows, cols, matrix.values[:, slot, rows]


def dia_to_csr(matrix: BatchDia) -> BatchCsr:
    """Convert DIA to shared-pattern CSR over the full in-band pattern.

    Every in-band position of every stored diagonal is emitted (stored
    zeros included) — the honest stored pattern of the DIA batch, not the
    possibly-sparser pattern it was built from.
    """
    rows, cols, vals = _dia_entries(matrix)
    row_counts = np.bincount(rows, minlength=matrix.num_rows)
    row_ptrs = np.zeros(matrix.num_rows + 1, dtype=INDEX_DTYPE)
    np.cumsum(row_counts, out=row_ptrs[1:])
    return BatchCsr(
        matrix.num_cols, row_ptrs, cols.astype(INDEX_DTYPE), vals, check=False
    )


def ell_to_dia(matrix: BatchEll) -> BatchDia:
    """Convert shared-pattern ELL directly to shared-offset DIA."""
    slot, rows = np.nonzero(matrix.col_idxs != PAD_COL)
    cols = matrix.col_idxs[slot, rows].astype(np.int64)
    diag_of = cols - rows
    offsets = np.unique(diag_of)
    if offsets.size == 0:
        offsets = np.zeros(1, dtype=np.int64)
    bands = np.zeros(
        (matrix.num_batch, offsets.size, matrix.num_rows), dtype=matrix.dtype
    )
    bands[:, np.searchsorted(offsets, diag_of), rows] = matrix.values[:, slot, rows]
    return BatchDia(matrix.num_cols, offsets, bands, check=False)


def dia_to_ell(matrix: BatchDia) -> BatchEll:
    """Convert DIA to shared-pattern ELL (full in-band pattern)."""
    return csr_to_ell(dia_to_csr(matrix))


def dia_to_dense(matrix: BatchDia) -> BatchDense:
    """Materialise a DIA batch as dense."""
    out = np.zeros((matrix.num_batch, matrix.num_rows, matrix.num_cols), dtype=matrix.dtype)
    rows, cols, vals = _dia_entries(matrix)
    out[:, rows, cols] = vals
    return BatchDense(out)


def dense_to_dia(matrix: BatchDense, *, tol: float = 0.0) -> BatchDia:
    """Compress a dense batch to DIA over the union diagonal set."""
    return BatchDia.from_dense(matrix.values, tol=tol)


def tridiag_to_dia(tri) -> BatchDia:
    """Expand the interleaved tridiagonal layout into a 3-diagonal DIA.

    Duck-typed on ``bands()`` so the converter needs no import of
    :mod:`repro.core.solvers.tridiag` (which imports this module).
    """
    dl, d, du = tri.bands()
    nb, n = d.shape
    values = np.zeros((nb, 3, n), dtype=d.dtype)
    values[:, 0, 1:] = dl  # offset -1: position r holds (r, r-1)
    values[:, 1, :] = d
    values[:, 2, :-1] = du  # offset +1: position r holds (r, r+1)
    return BatchDia(n, np.array([-1, 0, 1], dtype=INDEX_DTYPE), values)


_CONVERTERS = {
    ("csr", "ell"): csr_to_ell,
    ("csr", "dense"): csr_to_dense,
    ("csr", "dia"): csr_to_dia,
    ("ell", "csr"): ell_to_csr,
    ("ell", "dense"): ell_to_dense,
    ("ell", "dia"): ell_to_dia,
    ("dense", "csr"): dense_to_csr,
    ("dense", "ell"): dense_to_ell,
    ("dense", "dia"): dense_to_dia,
    ("dia", "csr"): dia_to_csr,
    ("dia", "ell"): dia_to_ell,
    ("dia", "dense"): dia_to_dense,
    ("tridiag", "dia"): tridiag_to_dia,
    ("tridiag", "csr"): lambda t: dia_to_csr(tridiag_to_dia(t)),
    ("tridiag", "ell"): lambda t: dia_to_ell(tridiag_to_dia(t)),
    ("tridiag", "dense"): lambda t: dia_to_dense(tridiag_to_dia(t)),
}


def to_format(matrix, format_name: str):
    """Convert ``matrix`` to the format named ``format_name``.

    Identity conversions return the input unchanged.
    """
    src = matrix.format_name
    if src == format_name:
        return matrix
    try:
        return _CONVERTERS[(src, format_name)](matrix)
    except KeyError:
        raise ValueError(
            f"no conversion from {src!r} to {format_name!r}; "
            f"known formats: csr, ell, dia, dense"
        ) from None
