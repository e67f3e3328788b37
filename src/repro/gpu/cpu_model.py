"""CPU baseline cost model: Kokkos-parallel ``dgbsv`` on the Skylake node.

The proxy app's production path runs each banded factor-and-solve as a
work item on one CPU core, distributing the batch over 38 of the node's 40
cores (Section V).  The model charges each system its true ``dgbsv``
operation count at the core's sustained rate and schedules statically:
``ceil(num_batch / cores)`` rounds.  Like the GPU wave model this produces
small steps at multiples of the core count — they are invisible at the
paper's scale because one round is cheap relative to the total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .hardware import CpuSpec
from .kernel import banded_lu_work

__all__ = ["CpuSolveEstimate", "estimate_cpu_dgbsv"]


@dataclass(frozen=True)
class CpuSolveEstimate:
    """A modelled CPU batched solve.

    Attributes
    ----------
    total_time_s:
        Wall-clock for the batch.
    per_entry_time_s:
        Mean time per system.
    per_system_s:
        Time of one factor-and-solve on one core.
    rounds:
        Static-scheduling rounds (``ceil(num_batch / cores_used)``).
    """

    total_time_s: float
    per_entry_time_s: float
    per_system_s: float
    rounds: int


def estimate_cpu_dgbsv(
    cpu: CpuSpec, num_rows: int, kl: int, ku: int, num_batch: int
) -> CpuSolveEstimate:
    """Model the Kokkos-parallelised LAPACK ``dgbsv`` batch solve."""
    if num_batch < 1:
        raise ValueError("num_batch must be >= 1")
    work = banded_lu_work(num_rows, kl, ku)
    t_sys = work.flops / cpu.effective_flops_per_core
    rounds = math.ceil(num_batch / cpu.cores_used)
    total = rounds * t_sys
    return CpuSolveEstimate(
        total_time_s=total,
        per_entry_time_s=total / num_batch,
        per_system_s=t_sys,
        rounds=rounds,
    )
