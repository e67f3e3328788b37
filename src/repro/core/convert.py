"""Conversions between batch-matrix formats.

Every conversion goes through the entry list of the format contract
(:class:`~repro.core.spmv.BatchMatrix`): the source reports its stored
entries in CSR order and the target builds itself from them.  Stored
patterns (explicit zeros included) and values therefore survive exactly,
with two format-specific adjustments:

* dense stores every position but reports as entries only the positions
  that are non-zero in some system (the union pattern);
* DIA stores whole diagonals, so positions of a stored diagonal that the
  source skipped become explicit zeros, and DIA reports that full in-band
  pattern back.

Values and matrix-vector products round-trip exactly either way.
"""

from __future__ import annotations

import numpy as np

from .batch_csr import BatchCsr
from .batch_dense import BatchDense
from .batch_dia import BatchDia
from .batch_ell import BatchEll
from .types import INDEX_DTYPE

__all__ = ["tridiag_to_dia", "to_format"]

#: The built-in formats by ``format_name``.
FORMATS = {cls.format_name: cls for cls in (BatchCsr, BatchEll, BatchDia, BatchDense)}


def tridiag_to_dia(tri) -> BatchDia:
    """Expand the interleaved tridiagonal layout into a 3-diagonal DIA.

    Duck-typed on ``bands()`` (``(dl, d, du)`` in ``(num_batch, ...)``
    layout), so it expands a :class:`~repro.core.solvers.tridiag.
    BatchTridiag` and the operator zoo's assembled operators alike.
    """
    dl, d, du = tri.bands()
    nb, n = d.shape
    values = np.zeros((nb, 3, n), dtype=d.dtype)
    values[:, 0, 1:] = dl  # offset -1: position r holds (r, r-1)
    values[:, 1, :] = d
    values[:, 2, :-1] = du  # offset +1: position r holds (r, r+1)
    return BatchDia(n, np.array([-1, 0, 1], dtype=INDEX_DTYPE), values)


def to_format(matrix, format_name: str):
    """Convert ``matrix`` to the format named ``format_name``.

    ``matrix`` is a :class:`~repro.core.spmv.BatchMatrix` or a
    :class:`~repro.core.solvers.tridiag.BatchTridiag`.  Identity
    conversions return the input unchanged.
    """
    src = matrix.format_name
    if src == format_name:
        return matrix
    target = FORMATS.get(format_name)
    if src == "tridiag" and target is not None:
        return to_format(tridiag_to_dia(matrix), format_name)
    if target is None or not hasattr(matrix, "entries"):
        raise ValueError(
            f"no conversion from {src!r} to {format_name!r}; "
            f"known formats: {', '.join(FORMATS)}"
        )
    rows, cols, index = matrix.entries()
    return target.from_entries(
        matrix.num_rows, matrix.num_cols, rows, cols,
        matrix.values[(slice(None), *index)],
    )
