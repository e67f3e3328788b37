"""Batched preconditioners.

Each preconditioner exposes ``generate(matrix)`` (one-time setup from the
batch matrix), ``apply(r, out=None)`` (apply :math:`M^{-1}` to a batch
vector) and ``restrict(indices)`` (a view for the sub-batch active-batch
compaction keeps, or ``None`` to disarm compaction).  This is the
templated preconditioner slot of the Ginkgo fused kernel.  Every result in
the paper uses scalar Jacobi, the one apply the GPU model prices (``n``
flops per system); identity is the unpreconditioned baseline.

All preconditioners are stateless after ``generate`` and reusable across
solves with the same matrix.
"""

from __future__ import annotations

import numpy as np

from .types import InvalidFormatError

__all__ = [
    "BatchPreconditioner",
    "IdentityPreconditioner",
    "JacobiPreconditioner",
    "make_preconditioner",
]


class BatchPreconditioner:
    """Abstract base for batched preconditioners."""

    def generate(self, matrix) -> "BatchPreconditioner":
        """Build preconditioner data from a batch matrix; returns self."""
        raise NotImplementedError

    def apply(self, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Compute ``out[k] = M[k]^{-1} r[k]``."""
        raise NotImplementedError

    def restrict(self, indices: np.ndarray) -> "BatchPreconditioner | None":
        """A generated-preconditioner view for the sub-batch ``indices``.

        Used by active-batch compaction; the restricted preconditioner must
        apply bit-identically to the selected systems.  Returns ``None``
        when a subclass cannot be restricted (compaction is then skipped).
        """
        return None


class IdentityPreconditioner(BatchPreconditioner):
    """No-op preconditioner: :math:`M^{-1} = I`."""

    def generate(self, matrix) -> "IdentityPreconditioner":
        return self

    def apply(self, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            return r.copy()
        out[...] = r
        return out

    def restrict(self, indices: np.ndarray) -> "IdentityPreconditioner":
        return self


class JacobiPreconditioner(BatchPreconditioner):
    """Scalar Jacobi: :math:`M^{-1} = \\mathrm{diag}(A)^{-1}`, per system.

    This is the preconditioner used for every result in the paper.  Zero
    diagonal entries are rejected at generation time rather than producing
    infinities mid-solve.
    """

    def __init__(self) -> None:
        self._inv_diag: np.ndarray | None = None

    @property
    def inv_diag(self) -> np.ndarray:
        """Per-system inverted diagonals (available after ``generate``)."""
        if self._inv_diag is None:
            raise RuntimeError("JacobiPreconditioner.generate was never called")
        return self._inv_diag

    def generate(self, matrix) -> "JacobiPreconditioner":
        diag = matrix.diagonal()
        if np.any(diag == 0.0):
            bad = int(np.argwhere(diag == 0.0)[0][0])
            raise InvalidFormatError(
                f"Jacobi preconditioner requires non-zero diagonals; "
                f"system {bad} has a zero diagonal entry"
            )
        self._inv_diag = 1.0 / diag
        return self

    def apply(self, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        inv = self.inv_diag
        if out is None:
            return r * inv
        np.multiply(r, inv, out=out)
        return out

    def restrict(self, indices: np.ndarray) -> "JacobiPreconditioner | None":
        if self._inv_diag is None:
            return None
        sub = JacobiPreconditioner()
        sub._inv_diag = self._inv_diag[np.asarray(indices)]
        return sub


_PRECONDITIONERS = {
    "identity": IdentityPreconditioner,
    "none": IdentityPreconditioner,
    "jacobi": JacobiPreconditioner,
}


def make_preconditioner(name: str) -> BatchPreconditioner:
    """Factory: build a preconditioner by name.

    Accepted names: ``identity``/``none``, ``jacobi``.
    """
    try:
        cls = _PRECONDITIONERS[name]
    except KeyError:
        raise ValueError(
            f"unknown preconditioner {name!r}; "
            f"choices: {sorted(set(_PRECONDITIONERS))}"
        ) from None
    return cls()
