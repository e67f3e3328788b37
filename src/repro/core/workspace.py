"""Solver workspace vectors and the shared-memory placement policy (§IV-D).

Two related concerns live here:

1. :class:`SolverWorkspace` — host-side preallocation of the auxiliary batch
   vectors a solver needs, so that repeated solves (e.g. the five linear
   solves inside one Picard loop) perform **zero** allocations after the
   first.  This is the guide-recommended preallocate-and-reuse idiom.

2. :func:`plan_storage` — the *automatic shared-memory configuration* of the
   paper: given the per-CU shared-memory budget, decide which solver vectors
   live in fast local shared memory and which spill to global HBM.  Vectors
   involved in matrix-vector products ("red" in Algorithm 1: ``p_hat, v,
   s_hat, t``) are placed first; other intermediates ("blue": ``r, r_hat, p,
   s, x``) fill whatever space remains.  The resulting
   :class:`StorageConfig` mirrors the struct of integers the CUDA kernel
   receives and feeds the GPU memory-traffic model.

The paper reports that on the V100 this policy places 6 of BiCGStab's 9
vectors in shared memory; the planner reproduces that outcome with the V100
budget (48 KiB per block, i.e. two resident blocks per 96 KiB CU).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .types import DTYPE

__all__ = [
    "VectorSpec",
    "StorageConfig",
    "SolverWorkspace",
    "solver_vector_specs",
    "plan_storage",
]


@dataclass(frozen=True)
class VectorSpec:
    """One auxiliary solver vector and its placement priority.

    Attributes
    ----------
    name:
        Vector identifier (matches Algorithm 1's symbol names).
    role:
        ``"spmv"`` for vectors read/written by the SpMV kernel (highest
        placement priority — red in Algorithm 1), ``"aux"`` for the other
        intermediates (blue).
    touches:
        Average read/write passes over the vector per solver iteration;
        spilled vectors pay this many global-memory passes in the traffic
        model (:func:`repro.gpu.kernel.iteration_work`).
    """

    name: str
    role: str
    touches: float = 2.0

    def __post_init__(self) -> None:
        if self.role not in ("spmv", "aux"):
            raise ValueError(f"role must be 'spmv' or 'aux', got {self.role!r}")
        if self.touches <= 0.0:
            raise ValueError(f"touches must be positive, got {self.touches}")


def solver_vector_specs(solver: str, *, gmres_restart: int = 30) -> tuple[VectorSpec, ...]:
    """Vector specs for a named solver, from its declared operation schedule.

    GMRES is parameterised by its restart length: it keeps the ``m + 1``
    Krylov basis vectors (all SpMV operands) plus residual and solution.
    The specs come from the same :class:`~repro.core.solvers.schedule.
    OpSchedule` registry the host solvers and the GPU model read, so the
    placement planner can never drift from what the solvers allocate.
    """
    from .solvers.schedule import solver_schedule

    return solver_schedule(solver, gmres_restart=gmres_restart).vectors


@dataclass(frozen=True)
class StorageConfig:
    """Outcome of the shared-memory placement decision for one kernel.

    Frozen (and therefore hashable): placements are value objects, cached
    by the GPU model's memoized work builders and embedded in hashable
    :class:`~repro.gpu.tuning.TuningDecision` records.

    Attributes
    ----------
    shared_vectors:
        Names of vectors resident in CU-local shared memory.
    global_vectors:
        Names of vectors spilled to global device memory.
    vector_bytes:
        Size of one vector for one system, in bytes.
    shared_bytes_used:
        Shared memory the kernel will request per thread block.
    budget_bytes:
        The per-block shared-memory budget the planner worked against.
    """

    shared_vectors: tuple[str, ...]
    global_vectors: tuple[str, ...]
    vector_bytes: int
    shared_bytes_used: int
    budget_bytes: int

    @property
    def num_shared(self) -> int:
        """Count of vectors placed in shared memory."""
        return len(self.shared_vectors)

    @property
    def num_global(self) -> int:
        """Count of vectors spilled to global memory."""
        return len(self.global_vectors)

    @property
    def num_vectors(self) -> int:
        """Total auxiliary vectors the solver uses."""
        return self.num_shared + self.num_global


def plan_storage(
    vectors: Sequence[VectorSpec],
    num_rows: int,
    shared_budget_bytes: int,
    *,
    value_bytes: int = 8,
) -> StorageConfig:
    """Assign solver vectors to shared or global memory (§IV-D policy).

    SpMV-operand vectors are placed first (they dominate traffic because
    SpMVs account for most of the solve time), then the remaining
    intermediates, until the budget is exhausted.  Within a priority class
    the declaration order is preserved, matching the deterministic placement
    of the reference implementation.
    """
    if num_rows < 1:
        raise ValueError(f"num_rows must be >= 1, got {num_rows}")
    if shared_budget_bytes < 0:
        raise ValueError("shared_budget_bytes must be >= 0")
    vec_bytes = num_rows * value_bytes
    ordered = [v for v in vectors if v.role == "spmv"] + [
        v for v in vectors if v.role == "aux"
    ]
    shared: list[str] = []
    global_: list[str] = []
    used = 0
    for spec in ordered:
        if used + vec_bytes <= shared_budget_bytes:
            shared.append(spec.name)
            used += vec_bytes
        else:
            global_.append(spec.name)
    return StorageConfig(
        shared_vectors=tuple(shared),
        global_vectors=tuple(global_),
        vector_bytes=vec_bytes,
        shared_bytes_used=used,
        budget_bytes=int(shared_budget_bytes),
    )


class SolverWorkspace:
    """Preallocated pool of ``(num_batch, num_rows)`` batch vectors.

    Vectors are created lazily on first request and reused afterwards; a
    workspace survives across repeated solves of equally-sized batches so
    the inner Picard solves allocate nothing.
    """

    def __init__(
        self,
        num_batch: int,
        num_rows: int,
        *,
        dtype=DTYPE,
        scalar_dtype=None,
    ) -> None:
        if num_batch < 1 or num_rows < 1:
            raise ValueError("workspace dimensions must be positive")
        self.num_batch = int(num_batch)
        self.num_rows = int(num_rows)
        #: Working precision of the batch vectors (the streamed data).
        self.dtype = np.dtype(dtype)
        #: Dtype of per-system scalars — reduction results live here, so
        #: the mixed policy passes float64 while vectors stay float32.
        self.scalar_dtype = np.dtype(scalar_dtype if scalar_dtype is not None else dtype)
        self._vectors: dict[str, np.ndarray] = {}
        self._scalars: dict[str, np.ndarray] = {}

    def matches(self, num_batch: int, num_rows: int, dtype=None) -> bool:
        """Whether this workspace fits the given dimensions (and dtype)."""
        if dtype is not None and self.dtype != np.dtype(dtype):
            return False
        return self.num_batch == num_batch and self.num_rows == num_rows

    def vector(self, name: str, *, zero: bool = False) -> np.ndarray:
        """A named ``(num_batch, num_rows)`` vector; optionally zeroed."""
        arr = self._vectors.get(name)
        if arr is None:
            arr = np.zeros((self.num_batch, self.num_rows), dtype=self.dtype)
            self._vectors[name] = arr
        elif zero:
            arr[...] = 0.0
        return arr

    def scalar(self, name: str, *, fill: float | None = None) -> np.ndarray:
        """A named ``(num_batch,)`` per-system scalar array."""
        arr = self._scalars.get(name)
        if arr is None:
            arr = np.zeros(self.num_batch, dtype=self.scalar_dtype)
            self._scalars[name] = arr
        if fill is not None:
            arr[...] = fill
        return arr

    @property
    def allocated_vectors(self) -> int:
        """Number of distinct vectors currently allocated."""
        return len(self._vectors)

    def allocated_bytes(self) -> int:
        """Total bytes held by the workspace."""
        return sum(a.nbytes for a in self._vectors.values()) + sum(
            a.nbytes for a in self._scalars.values()
        )
