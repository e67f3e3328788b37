"""Thread-block scheduling model: batch makespan from per-block times.

Section V observes two qualitatively different batch-size scalings:

* the **MI100** shows "discrete jumps at multiples of 120" — the scheduler
  behaves wave-synchronously, waiting for a compute unit to drain before
  dispatching the next block, so the makespan grows by (roughly) one
  worst-block time whenever the batch crosses a multiple of the CU count;
* the **V100/A100** curves are smooth — blocks are dispatched flexibly to
  whichever CU frees up, so the non-uniform per-system iteration counts of
  an ion/electron mix fill the gaps.

Both policies are implemented here over the *per-system* execution times
that the solver's per-system iteration counts produce.  This is where the
paper's staircase (Fig. 6, red circles) and its absence on the V100 come
from in this reproduction.
"""

from __future__ import annotations

import numpy as np

from .hardware import GpuSpec
from .occupancy import Occupancy

__all__ = ["schedule_blocks", "wave_makespan", "flexible_makespan"]


def wave_makespan(block_times: np.ndarray, slots: int) -> float:
    """Wave-synchronous dispatch: waves of ``slots`` blocks, barrier between.

    The makespan is the sum over waves of each wave's slowest block —
    producing the staircase at multiples of ``slots``.
    """
    if slots < 1:
        raise ValueError("slots must be >= 1")
    t = np.asarray(block_times, dtype=np.float64)
    if t.size == 0:
        return 0.0
    if t[0] == t[-1] and np.all(t == t[0]):
        # Uniform blocks: every wave's slowest block is the common time, so
        # the staircase is exactly one block time per (possibly partial)
        # wave.  Same value as the loop below, O(n) instead of per-wave
        # slicing — fixed-iteration pricing of large batches lands here.
        return float(t[0]) * -(-t.size // slots)
    total = 0.0
    for start in range(0, t.size, slots):
        total += float(t[start: start + slots].max())
    return total


def flexible_makespan(block_times: np.ndarray, slots: int) -> float:
    """Greedy list scheduling: each freed slot takes the next block.

    Models the flexible dispatch of the NVIDIA GPUs: no barrier between
    blocks, so short (ion) blocks backfill behind long (electron) ones and
    the makespan scales smoothly with the batch size.
    """
    if slots < 1:
        raise ValueError("slots must be >= 1")
    t = np.asarray(block_times, dtype=np.float64)
    if t.size == 0:
        return 0.0
    if t.size <= slots:
        return float(t.max())
    if t[0] == t[-1] and np.all(t == t[0]):
        # Uniform blocks: greedy assignment deals the jobs out evenly (the
        # earliest-finishing slot is always one with the fewest blocks), so
        # the makespan is exactly ceil(n / slots) block times.  Identical
        # to the simulation below but O(n) — this is the case every
        # fixed-iteration estimate (tuner, fig6 sweeps) hits at every batch.
        return float(t[0]) * -(-t.size // slots)
    finish = np.zeros(slots)
    # Seed the slots with the first `slots` blocks, then greedily assign
    # each further block to the earliest-finishing slot.  A heap would be
    # O(n log s); argmin is fine at these sizes and keeps NumPy-only code.
    finish[:] = t[:slots]
    for i in range(slots, t.size):
        j = int(np.argmin(finish))
        finish[j] += t[i]
    return float(finish.max())


def schedule_blocks(
    hw: GpuSpec, occupancy: Occupancy, block_times: np.ndarray
) -> float:
    """Makespan of a batch on ``hw`` under its scheduling policy.

    ``block_times`` holds one execution time per system (one thread block
    per system); ``occupancy`` supplies the concurrent-slot count.
    """
    if hw.scheduling == "wave":
        return wave_makespan(block_times, occupancy.total_slots)
    return flexible_makespan(block_times, occupancy.total_slots)
