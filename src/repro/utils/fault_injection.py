"""Deterministic fault injection for the batched solver stack.

Robustness paths are worthless if they cannot be exercised on demand.
This module corrupts a *chosen* system of a batch in a *chosen* way —
no randomness anywhere — so the tests in ``tests/core/test_faults.py``
can prove that each :class:`~repro.core.faults.SolverHealth` state is
reachable and that :class:`~repro.core.solvers.escalation.EscalationSolver`
recovers it, and the Picard loop can rehearse its recovery story
end-to-end (plug a :class:`FaultInjector` into
:class:`~repro.xgc.picard.PicardOptions`).

Fault kinds (:class:`FaultSpec.kind`):

``"nan"`` / ``"inf"``
    Poison the diagonal entry of the spec's rows with NaN / +Inf — the
    classic corrupted-assembly fault.  Unrecoverable by re-solving (the
    operator itself is poisoned); drives the NON_FINITE state.
``"zero_pivot"``
    Zero the diagonal entry of the spec's rows.  Kills the Jacobi
    preconditioner (rejected at generation) and exercises the direct
    solver's partial pivoting.
``"scale_row"``
    Multiply the stored values of the spec's rows by ``factor`` —
    near-singularity / severe ill-conditioning on demand.
``"scale_diag"``
    Multiply only the *diagonal* entry of the spec's rows by ``factor``.
    Unlike row scaling this changes the Jacobi-normalised spectrum, so it
    deterministically drives stationary methods into stagnation (a
    diagonal entry at exactly twice its Richardson fixed point oscillates
    forever) or divergence (larger factors grow the error every sweep)
    while the system itself stays comfortably solvable by stronger rungs.
``"scale_system"``
    Multiply *every* row of the system by ``factor``.  With tiny factors
    (~1e-170) intermediate Krylov quantities underflow to exact zero,
    which is the deterministic trigger for the omega-family breakdown.
``"breakdown"``
    Replace the system with the rotation block ``[[0, 1], [-1, 0]]``
    (identity elsewhere) and the right-hand side with ``e_0``: BiCGSTAB's
    alpha denominator ``r_hat . A p`` is *exactly* zero at iteration 0 —
    the textbook BiCG serendipitous-orthogonality breakdown, on demand.
    Requires the pattern to contain the (0,1) and (1,0) entries (any
    stencil with off-diagonal neighbours qualifies).
``"drop"``
    Zero the system's matrix values and right-hand side: the system is
    trivially satisfied by ``x = 0`` and converges at entry — the benign
    way to take a system out of a batch without changing its shape.
``"nan_guess"``
    Poison the system's *initial guess* (warm start) with NaN.  Fully
    recoverable: a fresh zero-guess re-solve sees an intact system.

All corruption routines return **copies** (``take_batch`` gathers values
and shares the read-only pattern); the caller's matrix, right-hand side,
and guess are never mutated — the Picard assembly buffer in particular
stays pristine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["FaultSpec", "FaultInjector"]

_MATRIX_KINDS = (
    "nan",
    "inf",
    "zero_pivot",
    "scale_row",
    "scale_diag",
    "scale_system",
    "breakdown",
    "drop",
)
_GUESS_KINDS = ("nan_guess",)
_KINDS = _MATRIX_KINDS + _GUESS_KINDS


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic fault: what to corrupt, where, and how much.

    Attributes
    ----------
    kind:
        Fault kind (see the module docstring).
    system:
        Batch index of the target system.
    rows:
        Target rows for the row-local kinds (``nan`` / ``inf`` /
        ``zero_pivot`` / ``scale_row`` / ``scale_diag``); defaults to row 0.
    factor:
        Scale factor of the ``scale_row`` / ``scale_diag`` /
        ``scale_system`` kinds.
    """

    kind: str
    system: int
    rows: tuple = (0,)
    factor: float = 1e-8

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; choices: {_KINDS}")
        if self.system < 0:
            raise ValueError(f"system must be >= 0, got {self.system}")


class FaultInjector:
    """Applies a list of :class:`FaultSpec` to matrices, rhs, and guesses.

    Deterministic and picklable (plain data only), so it can cross a
    process boundary and live inside a frozen
    :class:`~repro.xgc.picard.PicardOptions`.
    """

    def __init__(self, specs) -> None:
        self.specs = tuple(specs)
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise TypeError(f"expected FaultSpec, got {type(spec).__name__}")

    def __repr__(self) -> str:
        return f"FaultInjector({list(self.specs)!r})"

    # -- application ----------------------------------------------------------

    def corrupt_matrix(self, matrix):
        """A corrupted copy of ``matrix`` (pattern shared, values copied)."""
        if not any(s.kind in _MATRIX_KINDS for s in self.specs):
            return matrix
        nb = matrix.shape.num_batch
        out = matrix.take_batch(np.arange(nb))
        values = out.values
        at = _StoredEntries(out)
        for spec in self.specs:
            if spec.kind not in _MATRIX_KINDS:
                continue
            self._check_system(spec, nb)
            k = spec.system
            if spec.kind == "nan":
                for r in spec.rows:
                    values[at.entry(k, r, r)] = np.nan
            elif spec.kind == "inf":
                for r in spec.rows:
                    values[at.entry(k, r, r)] = np.inf
            elif spec.kind == "zero_pivot":
                for r in spec.rows:
                    values[at.entry(k, r, r)] = 0.0
            elif spec.kind == "scale_row":
                for r in spec.rows:
                    values[at.row(k, r)] *= spec.factor
            elif spec.kind == "scale_diag":
                for r in spec.rows:
                    values[at.entry(k, r, r)] *= spec.factor
            elif spec.kind == "scale_system":
                values[k] *= spec.factor
            elif spec.kind == "breakdown":
                values[k] = 0.0
                values[at.entry(k, 0, 1)] = 1.0
                values[at.entry(k, 1, 0)] = -1.0
                for r in range(2, matrix.shape.num_rows):
                    values[at.entry(k, r, r)] = 1.0
            elif spec.kind == "drop":
                values[k] = 0.0
        return out

    def corrupt_rhs(self, b: np.ndarray) -> np.ndarray:
        """A corrupted copy of the right-hand sides (where needed)."""
        touched = [
            s for s in self.specs if s.kind in ("breakdown", "drop")
        ]
        if not touched:
            return b
        b = np.array(b, copy=True)
        for spec in touched:
            self._check_system(spec, b.shape[0])
            if spec.kind == "breakdown":
                b[spec.system] = 0.0
                b[spec.system, 0] = 1.0
            else:  # drop
                b[spec.system] = 0.0
        return b

    def corrupt_guess(self, x0: np.ndarray | None) -> np.ndarray | None:
        """A corrupted copy of the initial guesses (warm starts)."""
        if x0 is None:
            return None
        touched = [
            s for s in self.specs if s.kind in _GUESS_KINDS or s.kind == "breakdown"
        ]
        if not touched:
            return x0
        x0 = np.array(x0, copy=True)
        for spec in touched:
            self._check_system(spec, x0.shape[0])
            if spec.kind == "nan_guess":
                x0[spec.system, list(spec.rows)] = np.nan
            else:  # breakdown: the crafted system needs a clean zero start
                x0[spec.system] = 0.0
        return x0

    @property
    def systems(self) -> np.ndarray:
        """Sorted unique batch indices any spec targets."""
        return np.unique([s.system for s in self.specs]).astype(np.int64)

    @staticmethod
    def _check_system(spec: FaultSpec, nb: int) -> None:
        if spec.system >= nb:
            raise IndexError(
                f"fault targets system {spec.system} but the batch has {nb}"
            )


class _StoredEntries:
    """Value indices of a batch matrix's stored entries (via ``entries()``).

    Fault injection writes only stored entries, so corrupting a copy never
    changes its sparsity pattern.
    """

    def __init__(self, matrix) -> None:
        self.format_name = matrix.format_name
        self.rows, self.cols, self.index = matrix.entries()

    def entry(self, k: int, r: int, c: int) -> tuple:
        """Index into ``values`` of entry ``(r, c)`` of system ``k``."""
        hit = np.flatnonzero((self.rows == r) & (self.cols == c))
        if not hit.size:
            raise ValueError(
                f"entry ({r}, {c}) is not in the {self.format_name} sparsity "
                "pattern; fault injection can only write stored entries"
            )
        return (k, *(i[hit[0]] for i in self.index))

    def row(self, k: int, r: int) -> tuple:
        """Index into ``values`` of every stored entry of row ``r`` of ``k``."""
        on_row = self.rows == r
        return (k, *(i[on_row] for i in self.index))
