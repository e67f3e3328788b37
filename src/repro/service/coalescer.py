"""Dynamic request coalescing: compatible solves become one hardware batch.

The GPU cost model is brutally clear about why this layer exists: on a
V100 the fused BiCGSTAB kernel costs the *same* wall-clock for 1 system as
for 64 (the batch rides along on idle block slots), so dispatching requests
one by one wastes ~98% of the device.  The coalescer groups admitted
requests by a :class:`CompatKey` — same system size, matrix format,
sparsity pattern, value dtype, tolerance and solver variant — and flushes a
group as one concatenated batch when it reaches ``max_batch`` systems, when
its oldest request has waited ``max_wait_s``, or when the tightest deadline
in the group runs out of slack.

Compatibility is strict by design: every system in a flushed batch runs the
exact same solver configuration it would get from a direct ``solve()``
call, which is what keeps service-path numerics bit-identical per system
(the batched kernels compute each system independently along the batch
axis — the invariant active-batch compaction already pins).

The solver *variant* of a group is chosen once per key through
:func:`repro.gpu.tuning.tune_for_matrix` at the coalescing target batch
size: small-batch groups keep the sync-avoiding pipelined variants, large
ones the classic solvers — the sync-aware trade the tuner prices.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from ..gpu.hardware import GpuSpec
from ..gpu.tuning import tune_for_matrix
from .queue import SolveRequest, SolveTicket

__all__ = ["CoalescePolicy", "Coalescer", "CoalescedBatch", "CompatKey",
           "compat_key", "concat_requests"]


@dataclass(frozen=True)
class CompatKey:
    """What must match for two requests to share one hardware batch."""

    num_rows: int
    fmt: str
    dtype: str
    solver: str
    tolerance: float
    pattern_fp: str
    degraded: bool


#: Pattern-fingerprint cache: ``id(pattern array) -> (array ref, digest)``.
#: The strong reference keeps the id stable while cached; the cache is
#: small because traffic shares a handful of pattern templates.
_FP_CACHE: dict[int, tuple[object, str]] = {}
_FP_CACHE_MAX = 64


def _fingerprint_array(arr: np.ndarray) -> str:
    key = id(arr)
    hit = _FP_CACHE.get(key)
    if hit is not None and hit[0] is arr:
        return hit[1]
    digest = hashlib.blake2b(
        np.ascontiguousarray(arr).tobytes(), digest_size=8
    ).hexdigest()
    if len(_FP_CACHE) >= _FP_CACHE_MAX:
        _FP_CACHE.clear()
    _FP_CACHE[key] = (arr, digest)
    return digest


def pattern_fingerprint(matrix) -> str:
    """Stable digest of a batch matrix's shared sparsity pattern."""
    parts = [matrix.format_name, str(matrix.num_rows), str(matrix.num_cols)]
    parts += [_fingerprint_array(p) for p in matrix.pattern]
    return "/".join(parts)


def compat_key(request: SolveRequest) -> CompatKey:
    """The coalescing compatibility key of one request."""
    matrix = request.matrix
    return CompatKey(
        num_rows=int(matrix.num_rows),
        fmt=matrix.format_name,
        dtype=str(matrix.dtype),
        solver=request.solver,
        tolerance=float(request.tolerance),
        pattern_fp=pattern_fingerprint(matrix),
        degraded=bool(request.degraded),
    )


def concat_requests(requests: list[SolveRequest]):
    """Concatenate compatible requests into one batch matrix + RHS.

    Returns ``(matrix, b, slices)`` where ``slices[i]`` is request ``i``'s
    ``slice`` of the batch axis — results scatter back through it, so
    tickets resolve in *request* order regardless of which systems finish
    their iterations first inside the kernel.
    """
    values = np.concatenate([r.matrix.values for r in requests], axis=0)
    b = np.concatenate([r.b for r in requests], axis=0)
    matrix = requests[0].matrix.with_values(values)
    slices = []
    start = 0
    for r in requests:
        slices.append(slice(start, start + r.num_systems))
        start += r.num_systems
    return matrix, b, slices


@dataclass(frozen=True)
class CoalescePolicy:
    """Batching knobs of the coalescer.

    Attributes
    ----------
    max_batch:
        Flush a group once it holds this many *systems* (also the batch
        size at which the solver variant is priced).
    max_wait_s:
        Flush a group once its oldest request has waited this long
        (virtual seconds) — bounds the latency cost of batching.
    naive:
        Dispatch every request alone the moment it arrives (the
        per-request baseline the benchmark gates against).  Equivalent to
        ``max_batch=1, max_wait_s=0`` but spelled out for reports.
    """

    max_batch: int = 64
    max_wait_s: float = 2e-3
    naive: bool = False

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if self.max_wait_s < 0.0:
            raise ValueError("max_wait_s must be non-negative")


@dataclass
class CoalescedBatch:
    """One flushed batch, ready for the dispatcher."""

    batch_id: int
    key: CompatKey
    requests: list[SolveRequest]
    tickets: list[SolveTicket]
    solver_variant: str
    flush_time: float
    flush_reason: str

    @property
    def num_systems(self) -> int:
        return sum(r.num_systems for r in self.requests)


@dataclass
class _Group:
    """One compatibility group's pending requests and their running state.

    ``num_systems``, ``deadline`` (the tightest member deadline, ``None``
    when no member has one) and ``trigger`` (the deadline-pressure flush
    time) are kept up to date by :meth:`Coalescer.add` and
    :meth:`Coalescer._flush`, so the scheduler reads them instead of
    re-scanning the entries on every wake.
    """

    key: CompatKey
    entries: list[tuple[SolveRequest, SolveTicket]] = field(default_factory=list)
    oldest_arrival: float = 0.0
    num_systems: int = 0
    deadline: float | None = None
    trigger: float | None = None


class Coalescer:
    """Groups admitted requests into hardware batches under a wait policy.

    Parameters
    ----------
    policy:
        The :class:`CoalescePolicy` batching knobs.
    gpu:
        Target GPU for the per-key solver-variant choice.
    deadline_headroom_s:
        Slack the deadline-pressure flush keeps (from the QoS policy).
    service_estimate:
        Callable ``(key, solver_variant, num_systems) -> seconds``
        estimating a batch's service time — used by the deadline-pressure
        trigger.  ``None`` uses zero (deadline pressure fires only at
        headroom distance from the deadline itself).
    """

    def __init__(
        self,
        policy: CoalescePolicy,
        gpu: GpuSpec,
        *,
        deadline_headroom_s: float = 1e-3,
        service_estimate=None,
    ) -> None:
        self.policy = policy
        self.gpu = gpu
        self.deadline_headroom_s = float(deadline_headroom_s)
        self._estimate = service_estimate
        self._groups: dict[CompatKey, _Group] = {}
        self._variants: dict[CompatKey, str] = {}
        self._next_batch_id = 0

    # -- state ---------------------------------------------------------------

    @property
    def pending_requests(self) -> int:
        return sum(len(g.entries) for g in self._groups.values())

    def solver_variant(self, key: CompatKey, matrix) -> str:
        """The solver the group's batches run (cached per key).

        :func:`tune_for_matrix` prices the classic-vs-pipelined trade at
        the coalescing target batch size, so every batch flushed from one
        group uses the same variant — a request solved alone and the same
        request solved in a full batch must not silently change solver.
        Degraded groups run the refinement ladder instead.
        """
        if key.degraded:
            return "refinement"
        hit = self._variants.get(key)
        if hit is None:
            decision = tune_for_matrix(
                self.gpu, matrix, solver=key.solver,
                num_batch=self.policy.max_batch,
            )
            hit = decision.solver_variant or key.solver
            self._variants[key] = hit
        return hit

    # -- adding and flushing -------------------------------------------------

    def add(
        self, request: SolveRequest, ticket: SolveTicket, now: float
    ) -> list[CoalescedBatch]:
        """File one admitted request; returns any batches that became due.

        In ``naive`` mode every request flushes immediately as its own
        batch; otherwise a group flushes from :meth:`add` only when it
        reaches ``max_batch`` systems.
        """
        key = compat_key(request)
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = _Group(key=key, oldest_arrival=now)
        group.entries.append((request, ticket))
        group.num_systems += request.num_systems
        deadline = request.deadline
        if deadline is not None and (
            group.deadline is None or deadline < group.deadline
        ):
            group.deadline = deadline

        if self.policy.naive:
            return [self._flush(group, now, "naive")]
        if group.num_systems >= self.policy.max_batch:
            return [self._flush(group, now, "batch-full")]
        self._retrigger(group)
        return []

    def due(self, now: float) -> list[CoalescedBatch]:
        """Flush every group whose wait or deadline trigger has fired."""
        out = []
        for group in list(self._groups.values()):
            if now >= group.oldest_arrival + self.policy.max_wait_s:
                out.append(self._flush(group, now, "max-wait"))
            elif group.trigger is not None and now >= group.trigger:
                out.append(self._flush(group, now, "deadline-pressure"))
        return out

    def next_flush_time(self) -> float | None:
        """Earliest virtual time at which some group becomes due."""
        times = []
        for group in self._groups.values():
            times.append(group.oldest_arrival + self.policy.max_wait_s)
            if group.trigger is not None:
                times.append(group.trigger)
        return min(times) if times else None

    def _retrigger(self, group: _Group) -> None:
        """Recompute the group's deadline-pressure flush time.

        The trigger is the tightest deadline minus the headroom minus the
        estimated service time of the group's current size.
        """
        if group.deadline is None:
            group.trigger = None
            return
        estimate = 0.0
        if self._estimate is not None:
            variant = self.solver_variant(group.key, group.entries[0][0].matrix)
            estimate = float(self._estimate(group.key, variant, group.num_systems))
        group.trigger = group.deadline - self.deadline_headroom_s - estimate

    def _flush(self, group: _Group, now: float, reason: str) -> CoalescedBatch:
        """Cut up to ``max_batch`` systems from a group into one batch.

        Requests leave in arrival order (the admission queue already
        applied weighted fair ordering across tenants); a remainder stays
        behind with its wait clock reset to now and its running state
        recomputed from its entries.
        """
        cut = systems = 0
        for req, _ in group.entries:
            if cut and systems + req.num_systems > self.policy.max_batch:
                break
            cut += 1
            systems += req.num_systems
        take, rest = group.entries[:cut], group.entries[cut:]
        if rest:
            group.entries = rest
            group.oldest_arrival = now
            group.num_systems -= systems
            deadlines = [r.deadline for r, _ in rest if r.deadline is not None]
            group.deadline = min(deadlines) if deadlines else None
            self._retrigger(group)
        else:
            del self._groups[group.key]

        batch = CoalescedBatch(
            batch_id=self._next_batch_id,
            key=group.key,
            requests=[r for r, _ in take],
            tickets=[t for _, t in take],
            solver_variant=self.solver_variant(group.key, take[0][0].matrix),
            flush_time=now,
            flush_reason=reason,
        )
        self._next_batch_id += 1
        return batch
