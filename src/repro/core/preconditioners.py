"""Batched preconditioners.

Each preconditioner exposes ``generate(matrix)`` (one-time setup from the
batch matrix) and ``apply(r, out=None)`` (apply :math:`M^{-1}` to a batch
vector).  The paper's production runs use the scalar Jacobi preconditioner;
block-Jacobi and ILU(0) are provided for the composability experiments the
Ginkgo design targets (templated preconditioner slot in the fused kernel).

All preconditioners are stateless after ``generate`` and reusable across
solves with the same matrix.
"""

from __future__ import annotations

import numpy as np

from .batch_csr import BatchCsr
from .convert import to_format
from .types import DTYPE, InvalidFormatError

__all__ = [
    "BatchPreconditioner",
    "IdentityPreconditioner",
    "JacobiPreconditioner",
    "BlockJacobiPreconditioner",
    "Ilu0Preconditioner",
    "make_preconditioner",
]


class BatchPreconditioner:
    """Abstract base for batched preconditioners."""

    #: Identifier used by the factory and the performance model.
    name = "abstract"

    #: Auxiliary batch vectors of length ``num_rows`` the preconditioner
    #: needs resident during the solve (feeds the shared-memory planner).
    work_vectors = 0

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

    name = "identity"
    work_vectors = 0

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

    name = "jacobi"
    work_vectors = 1  # stores the inverted diagonal per system

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


class BlockJacobiPreconditioner(BatchPreconditioner):
    """Block-Jacobi with uniform block size.

    The matrix diagonal blocks of size ``block_size`` are extracted,
    inverted once per system (batched LU via ``numpy.linalg.inv`` on the
    stacked blocks), and applied as small dense mat-vecs.  Rows beyond the
    last full block fall back to scalar Jacobi.
    """

    name = "block-jacobi"
    work_vectors = 1

    def __init__(self, block_size: int = 4) -> None:
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        self.block_size = int(block_size)
        self._inv_blocks: np.ndarray | None = None
        self._tail_inv_diag: np.ndarray | None = None
        self._num_full: int = 0

    def generate(self, matrix) -> "BlockJacobiPreconditioner":
        csr = to_format(matrix, "csr")
        n = csr.num_rows
        bs = self.block_size
        self._num_full = n // bs
        nb = self._num_full

        # Extract the dense diagonal blocks from the shared CSR pattern.
        blocks = np.zeros((csr.num_batch, nb, bs, bs), dtype=csr.dtype)
        rows, cols, _ = csr.entries()
        in_full = (rows < nb * bs) & (rows // bs == cols // bs)
        br = rows[in_full] // bs
        ir = rows[in_full] % bs
        ic = cols[in_full] % bs
        blocks[:, br, ir, ic] = csr.values[:, in_full]

        self._inv_blocks = np.linalg.inv(blocks) if nb else None

        tail = np.arange(nb * bs, n)
        if tail.size:
            diag = csr.diagonal()[:, tail]
            if np.any(diag == 0.0):
                raise InvalidFormatError(
                    "block-Jacobi tail rows require non-zero diagonals"
                )
            self._tail_inv_diag = 1.0 / diag
        else:
            self._tail_inv_diag = None
        return self

    def apply(self, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if self._inv_blocks is None and self._tail_inv_diag is None:
            raise RuntimeError("BlockJacobiPreconditioner.generate was never called")
        if out is None:
            out = np.empty_like(r)
        bs = self.block_size
        nb = self._num_full
        if nb:
            rb = r[:, : nb * bs].reshape(r.shape[0], nb, bs)
            zb = np.einsum("kbij,kbj->kbi", self._inv_blocks, rb, optimize=True)
            out[:, : nb * bs] = zb.reshape(r.shape[0], nb * bs)
        if self._tail_inv_diag is not None:
            out[:, nb * bs:] = r[:, nb * bs:] * self._tail_inv_diag
        return out

    def restrict(self, indices: np.ndarray) -> "BlockJacobiPreconditioner | None":
        if self._inv_blocks is None and self._tail_inv_diag is None:
            return None
        idx = np.asarray(indices)
        sub = BlockJacobiPreconditioner(self.block_size)
        sub._num_full = self._num_full
        sub._inv_blocks = None if self._inv_blocks is None else self._inv_blocks[idx]
        sub._tail_inv_diag = (
            None if self._tail_inv_diag is None else self._tail_inv_diag[idx]
        )
        return sub


class Ilu0Preconditioner(BatchPreconditioner):
    """Incomplete LU with zero fill-in on the shared sparsity pattern.

    The factorisation is computed row-by-row (IKJ variant) with all batch
    systems advanced simultaneously: the k-loop is sequential but every
    update inside it is vectorised over the batch.  Triangular solves walk
    rows sequentially with batched inner products over the (short) row
    patterns — acceptable because the XGC rows hold only 9 entries.
    """

    name = "ilu0"
    work_vectors = 1

    def __init__(self) -> None:
        self._csr: BatchCsr | None = None
        self._lower: list | None = None
        self._upper: list | None = None
        self._diag_pos: np.ndarray | None = None

    def generate(self, matrix) -> "Ilu0Preconditioner":
        csr = to_format(matrix, "csr")
        n = csr.num_rows
        row_ptrs = csr.row_ptrs.astype(np.int64)
        col_idxs = csr.col_idxs.astype(np.int64)
        values = csr.values.copy()

        # Locate the diagonal entry of each row (required for ILU(0)).
        diag_pos = np.full(n, -1, dtype=np.int64)
        for i in range(n):
            s, e = row_ptrs[i], row_ptrs[i + 1]
            hits = np.nonzero(col_idxs[s:e] == i)[0]
            if hits.size == 0:
                raise InvalidFormatError(
                    f"ILU(0) requires a stored diagonal in every row; "
                    f"row {i} has none"
                )
            diag_pos[i] = s + hits[0]

        # Column lookup per row for fast pattern intersection.
        col_of = [col_idxs[row_ptrs[i]: row_ptrs[i + 1]] for i in range(n)]
        pos_of = [
            dict(zip(col_of[i].tolist(), range(row_ptrs[i], row_ptrs[i + 1])))
            for i in range(n)
        ]

        for i in range(1, n):
            s, e = row_ptrs[i], row_ptrs[i + 1]
            for idx in range(s, e):
                k = col_idxs[idx]
                if k >= i:
                    break
                # values[:, idx] = a_ik / u_kk   (batched)
                values[:, idx] /= values[:, diag_pos[k]]
                lik = values[:, idx]
                # Update the remaining entries of row i that row k also has.
                ks, ke = row_ptrs[k], row_ptrs[k + 1]
                for jdx in range(ks, ke):
                    j = col_idxs[jdx]
                    if j <= k:
                        continue
                    tgt = pos_of[i].get(int(j))
                    if tgt is not None:
                        values[:, tgt] -= lik * values[:, jdx]

        self._csr = BatchCsr(csr.num_cols, csr.row_ptrs, csr.col_idxs, values, check=False)
        self._diag_pos = diag_pos
        return self

    def apply(self, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if self._csr is None:
            raise RuntimeError("Ilu0Preconditioner.generate was never called")
        csr = self._csr
        n = csr.num_rows
        row_ptrs = csr.row_ptrs.astype(np.int64)
        col_idxs = csr.col_idxs.astype(np.int64)
        values = csr.values
        diag_pos = self._diag_pos

        if out is None:
            out = np.empty_like(r)
        y = out  # forward solve result reused for the backward solve
        # Forward: L y = r, unit diagonal.
        for i in range(n):
            s = row_ptrs[i]
            d = diag_pos[i]
            acc = r[:, i].copy()
            if d > s:
                cols = col_idxs[s:d]
                acc -= np.einsum("bj,bj->b", values[:, s:d], y[:, cols])
            y[:, i] = acc
        # Backward: U x = y.
        for i in range(n - 1, -1, -1):
            d = diag_pos[i]
            e = row_ptrs[i + 1]
            acc = y[:, i].copy()
            if e > d + 1:
                cols = col_idxs[d + 1: e]
                acc -= np.einsum("bj,bj->b", values[:, d + 1: e], y[:, cols])
            y[:, i] = acc / values[:, d]
        return out

    def restrict(self, indices: np.ndarray) -> "Ilu0Preconditioner | None":
        if self._csr is None:
            return None
        sub = Ilu0Preconditioner()
        sub._csr = self._csr.take_batch(indices)
        sub._diag_pos = self._diag_pos
        return sub


_PRECONDITIONERS = {
    "identity": IdentityPreconditioner,
    "none": IdentityPreconditioner,
    "jacobi": JacobiPreconditioner,
    "block-jacobi": BlockJacobiPreconditioner,
    "ilu0": Ilu0Preconditioner,
}


def make_preconditioner(name: str, **kwargs) -> BatchPreconditioner:
    """Factory: build a preconditioner by name.

    Accepted names: ``identity``/``none``, ``jacobi``, ``block-jacobi``,
    ``ilu0``.
    """
    try:
        cls = _PRECONDITIONERS[name]
    except KeyError:
        raise ValueError(
            f"unknown preconditioner {name!r}; "
            f"choices: {sorted(set(_PRECONDITIONERS))}"
        ) from None
    return cls(**kwargs)
