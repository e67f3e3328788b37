"""Format-generic batched SpMV dispatch.

The solvers in :mod:`repro.core.solvers` are written against the small
protocol every batch-matrix format implements (``apply`` /
``advanced_apply`` / ``diagonal`` / ``shape``).  This module provides
free-function entry points plus a tiny protocol check, so user code can pass
any of :class:`~repro.core.batch_csr.BatchCsr`,
:class:`~repro.core.batch_ell.BatchEll`,
:class:`~repro.core.batch_dia.BatchDia`,
:class:`~repro.core.batch_dense.BatchDense`, or a custom format.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from .types import BatchShape

__all__ = ["BatchMatrix", "spmv", "advanced_spmv", "residual"]


@runtime_checkable
class BatchMatrix(Protocol):
    """Structural protocol implemented by every batch-matrix format."""

    format_name: str

    @property
    def shape(self) -> BatchShape: ...

    def apply(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray: ...

    def advanced_apply(
        self, alpha, x: np.ndarray, beta, y: np.ndarray
    ) -> np.ndarray: ...


def spmv(matrix: BatchMatrix, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Batched matrix-vector product ``out[k] = A[k] @ x[k]``."""
    return matrix.apply(x, out=out)


def advanced_spmv(
    alpha,
    matrix: BatchMatrix,
    x: np.ndarray,
    beta,
    y: np.ndarray,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Batched ``y[k] = alpha * A[k] @ x[k] + beta * y[k]`` (in place).

    ``work`` is an optional ``(num_batch, num_rows)`` scratch buffer the
    product lands in; with it the built-in formats perform the fused update
    allocation-free.  It is only forwarded when given, so custom formats
    whose ``advanced_apply`` predates the parameter keep working.
    """
    if work is None:
        return matrix.advanced_apply(alpha, x, beta, y)
    return matrix.advanced_apply(alpha, x, beta, y, work=work)


def residual(
    matrix: BatchMatrix,
    x: np.ndarray,
    b: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Batched residual ``r[k] = b[k] - A[k] @ x[k]``.

    When ``out`` is given (typically a :class:`~repro.core.workspace.
    SolverWorkspace` vector) the residual is formed entirely in that buffer
    and no batch-vector-sized allocation happens — the convergence checks of
    the iterative solvers call this once per confirmation, so the hot path
    stays allocation-free.
    """
    r = matrix.apply(x, out=out)
    np.subtract(b, r, out=r)
    return r
