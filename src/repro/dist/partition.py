"""Batch partitioning across (simulated) MPI ranks.

The proxy app "utilizes MPI for multiple CPU nodes" and is embarrassingly
parallel over mesh nodes: each rank owns a contiguous slice of the batch
and runs its own Picard loop.  This module provides the decomposition
helpers — block and cyclic partitions plus imbalance diagnostics — without
requiring an MPI runtime (mpi4py is not a dependency).  The simulated
runner in :mod:`repro.dist.runner` executes the ranks one after another in
the calling process, and the solver service's dispatcher bills its GPU
shards on block partitions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..utils.validation import check_in, check_positive

__all__ = ["Partition", "partition_batch", "imbalance"]


@dataclass(frozen=True)
class Partition:
    """Assignment of batch entries to ranks.

    Attributes
    ----------
    num_ranks:
        Ranks in the decomposition.
    assignments:
        ``(num_batch,)`` int array: owning rank of each entry.
    scheme:
        ``"block"`` or ``"cyclic"``.
    """

    num_ranks: int
    assignments: np.ndarray
    scheme: str

    def indices_of(self, rank: int) -> np.ndarray:
        """Batch indices owned by ``rank`` (in batch order)."""
        if not 0 <= rank < self.num_ranks:
            raise IndexError(f"rank {rank} outside [0, {self.num_ranks})")
        return np.flatnonzero(self.assignments == rank)

    def counts(self) -> np.ndarray:
        """Entries per rank."""
        return np.bincount(self.assignments, minlength=self.num_ranks)

    def scatter(self, batch_array: np.ndarray) -> list[np.ndarray]:
        """Split a ``(num_batch, ...)`` array into per-rank arrays."""
        return [batch_array[self.indices_of(r)] for r in range(self.num_ranks)]

    def gather(self, per_rank: list[np.ndarray]) -> np.ndarray:
        """Reassemble per-rank arrays into batch order (inverse of scatter)."""
        if len(per_rank) != self.num_ranks:
            raise ValueError(
                f"expected {self.num_ranks} rank arrays, got {len(per_rank)}"
            )
        total = self.assignments.shape[0]
        first = per_rank[0]
        out = np.empty((total,) + first.shape[1:], dtype=first.dtype)
        for r, chunk in enumerate(per_rank):
            idx = self.indices_of(r)
            if chunk.shape[0] != idx.shape[0]:
                raise ValueError(
                    f"rank {r} array has {chunk.shape[0]} entries, "
                    f"partition expects {idx.shape[0]}"
                )
            out[idx] = chunk
        return out


def partition_batch(
    num_batch: int, num_ranks: int, *, scheme: str = "block"
) -> Partition:
    """Partition ``num_batch`` entries over ``num_ranks`` ranks.

    ``"block"`` gives each rank a contiguous slice (sizes differing by at
    most one); ``"cyclic"`` deals entries round-robin — useful when batch
    order correlates with difficulty (e.g. node-sorted profiles) and block
    slices would be imbalanced in *work* despite equal counts.
    """
    check_positive(num_batch, "num_batch")
    check_positive(num_ranks, "num_ranks")
    check_in(scheme, ("block", "cyclic"), "scheme")
    idx = np.arange(num_batch)
    if scheme == "cyclic":
        owners = idx % num_ranks
    else:
        base, extra = divmod(num_batch, num_ranks)
        sizes = np.full(num_ranks, base)
        sizes[:extra] += 1
        owners = np.repeat(np.arange(num_ranks), sizes)
    return Partition(num_ranks=num_ranks, assignments=owners, scheme=scheme)


def imbalance(partition: Partition, work_per_entry: np.ndarray | None = None) -> float:
    """Load imbalance ``max(rank work) / mean(rank work)`` (1.0 = perfect).

    ``work_per_entry`` weights entries by cost (e.g. measured solver
    iterations); entry counts are used when omitted.
    """
    if work_per_entry is None:
        loads = partition.counts().astype(float)
    else:
        work = np.asarray(work_per_entry, dtype=float)
        if work.shape[0] != partition.assignments.shape[0]:
            raise ValueError("work_per_entry length must match the batch size")
        loads = np.zeros(partition.num_ranks)
        np.add.at(loads, partition.assignments, work)
    mean = loads.mean()
    return float(loads.max() / mean) if mean > 0 else 1.0
