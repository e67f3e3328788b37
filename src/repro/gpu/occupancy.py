"""Occupancy model: resident thread blocks per compute unit.

One thread block solves one system (Section IV-C).  How many blocks a CU
can host simultaneously is limited by the dynamic shared memory each block
requests — the §IV-D planner deliberately sizes its request so that at
least two blocks stay resident (latency hiding), and this module closes the
loop by computing the residency that a given request actually achieves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .hardware import GpuSpec

__all__ = ["Occupancy", "compute_occupancy"]

#: Hardware cap on resident blocks per CU (simplified, uniform).
MAX_BLOCKS_PER_CU = 32


@dataclass(frozen=True)
class Occupancy:
    """Residency outcome for one kernel on one GPU.

    Attributes
    ----------
    blocks_per_cu:
        Thread blocks resident per compute unit.
    total_slots:
        Concurrent blocks across the whole device.
    limiter:
        What capped residency (``"shared-memory"``, ``"threads"``, or
        ``"block-cap"``).
    """

    blocks_per_cu: int
    total_slots: int
    limiter: str


def compute_occupancy(
    hw: GpuSpec,
    shared_bytes_per_block: int,
    threads_per_block: int,
    *,
    max_threads_per_cu: int = 2048,
) -> Occupancy:
    """Resident blocks per CU for a kernel's resource request.

    Parameters
    ----------
    hw:
        Target GPU.
    shared_bytes_per_block:
        Dynamic shared memory requested per block.
    threads_per_block:
        Block size (the batched kernels use one thread per row, rounded up
        to a warp multiple).
    """
    if threads_per_block < 1:
        raise ValueError("threads_per_block must be >= 1")
    if shared_bytes_per_block < 0:
        raise ValueError("shared_bytes_per_block must be >= 0")

    limits = {"block-cap": MAX_BLOCKS_PER_CU}
    if shared_bytes_per_block > 0:
        shared_cap = hw.max_shared_per_block_kib * 1024
        if shared_bytes_per_block > shared_cap:
            raise ValueError(
                f"kernel requests {shared_bytes_per_block} B shared, but "
                f"{hw.name} allows at most {shared_cap} B per block"
            )
        limits["shared-memory"] = (
            hw.max_shared_per_block_kib * 1024 // shared_bytes_per_block
        )
    warp_threads = math.ceil(threads_per_block / hw.warp_size) * hw.warp_size
    limits["threads"] = max_threads_per_cu // warp_threads

    limiter = min(limits, key=lambda k: limits[k])
    blocks = max(1, int(limits[limiter]))
    return Occupancy(
        blocks_per_cu=blocks,
        total_slots=blocks * hw.num_cus,
        limiter=limiter,
    )
