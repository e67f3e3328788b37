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
ones the classic solvers — the same sync-aware trade the autotuning layer
prices.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from ..core.batch_csr import BatchCsr
from ..core.batch_dense import BatchDense
from ..core.batch_dia import BatchDia
from ..core.batch_ell import BatchEll
from ..gpu.hardware import GpuSpec
from ..gpu.tuning import tune_for_matrix
from .queue import SolveRequest, SolveTicket

__all__ = ["CoalescePolicy", "Coalescer", "CoalescedBatch", "CompatKey",
           "compat_key", "concat_requests"]


@dataclass(frozen=True)
class CompatKey:
    """What must match for two requests to share one hardware batch.

    ``scenario`` is the workload identity (``"xgc"``, ``"dougherty"``,
    ``"lenard_bernstein"``, ``"landau"``): requests from different
    operators never coalesce even when their patterns coincide, because
    the scenario drives the tuner's validity masks and distilled-policy
    lookup — one batch must mean one tuning decision."""

    num_rows: int
    fmt: str
    dtype: str
    solver: str
    tolerance: float
    pattern_fp: str
    degraded: bool
    scenario: str = "xgc"


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


#: Pattern arrays per format — the arrays whose *contents* define the
#: shared sparsity structure a coalesced batch must agree on.
_PATTERN_ATTRS = {
    BatchCsr: ("row_ptrs", "col_idxs"),
    BatchEll: ("col_idxs",),
    BatchDia: ("offsets",),
    BatchDense: (),
}


def _format_of(matrix) -> tuple[str, tuple[str, ...]]:
    for cls, attrs in _PATTERN_ATTRS.items():
        if isinstance(matrix, cls):
            return cls.__name__.removeprefix("Batch").lower(), attrs
    raise TypeError(
        f"cannot coalesce matrices of type {type(matrix).__name__}; "
        "supported: BatchCsr, BatchEll, BatchDia, BatchDense"
    )


def pattern_fingerprint(matrix) -> str:
    """Stable digest of a batch matrix's shared sparsity pattern."""
    fmt, attrs = _format_of(matrix)
    parts = [fmt, str(matrix.num_rows), str(matrix.num_cols)]
    parts += [_fingerprint_array(getattr(matrix, a)) for a in attrs]
    return "/".join(parts)


def compat_key(request: SolveRequest) -> CompatKey:
    """The coalescing compatibility key of one request."""
    matrix = request.matrix
    fmt, _ = _format_of(matrix)
    return CompatKey(
        num_rows=int(matrix.num_rows),
        fmt=fmt,
        dtype=str(np.dtype(getattr(matrix, "dtype", np.float64))),
        solver=request.solver,
        tolerance=float(request.tolerance),
        pattern_fp=pattern_fingerprint(matrix),
        degraded=bool(request.degraded),
        scenario=request.scenario,
    )


def concat_requests(requests: list[SolveRequest]):
    """Concatenate compatible requests into one batch matrix + RHS.

    Returns ``(matrix, b, slices)`` where ``slices[i]`` is request ``i``'s
    ``slice`` of the batch axis — results scatter back through it, so
    tickets resolve in *request* order regardless of which systems finish
    their iterations first inside the kernel.
    """
    first = requests[0].matrix
    fmt, _ = _format_of(first)
    values = np.concatenate([r.matrix.values for r in requests], axis=0)
    b = np.concatenate([r.b for r in requests], axis=0)
    if fmt == "csr":
        matrix = BatchCsr(first.num_cols, first.row_ptrs, first.col_idxs,
                          values, check=False)
    elif fmt == "ell":
        matrix = BatchEll(first.num_cols, first.col_idxs, values, check=False)
    elif fmt == "dia":
        matrix = BatchDia(first.num_cols, first.offsets, values, check=False)
    else:
        matrix = BatchDense(values)
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
    key: CompatKey
    entries: list[tuple[SolveRequest, SolveTicket]] = field(default_factory=list)
    oldest_arrival: float = 0.0

    @property
    def num_systems(self) -> int:
        return sum(r.num_systems for r, _ in self.entries)

    def min_deadline(self) -> float | None:
        deadlines = [r.deadline for r, _ in self.entries if r.deadline is not None]
        return min(deadlines) if deadlines else None


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
    def pending_systems(self) -> int:
        return sum(g.num_systems for g in self._groups.values())

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
                scenario=key.scenario,
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
        elif not group.entries:
            group.oldest_arrival = now
        group.entries.append((request, ticket))

        if self.policy.naive:
            return [self._flush(group, now, "naive")]
        if group.num_systems >= self.policy.max_batch:
            return [self._flush(group, now, "batch-full")]
        return []

    def due(self, now: float) -> list[CoalescedBatch]:
        """Flush every group whose wait or deadline trigger has fired."""
        out = []
        for group in list(self._groups.values()):
            if not group.entries:
                continue
            reason = self._due_reason(group, now)
            if reason is not None:
                out.append(self._flush(group, now, reason))
        return out

    def flush_all(self, now: float) -> list[CoalescedBatch]:
        """Flush everything (service drain/shutdown)."""
        return [
            self._flush(g, now, "drain")
            for g in list(self._groups.values())
            if g.entries
        ]

    def next_flush_time(self) -> float | None:
        """Earliest virtual time at which some group becomes due."""
        times = []
        for group in self._groups.values():
            if not group.entries:
                continue
            times.append(group.oldest_arrival + self.policy.max_wait_s)
            deadline = group.min_deadline()
            if deadline is not None:
                times.append(self._deadline_trigger(group, deadline))
        return min(times) if times else None

    def _service_estimate(self, group: _Group) -> float:
        if self._estimate is None:
            return 0.0
        variant = self.solver_variant(group.key, group.entries[0][0].matrix)
        return float(self._estimate(group.key, variant, group.num_systems))

    def _deadline_trigger(self, group: _Group, deadline: float) -> float:
        return deadline - self.deadline_headroom_s - self._service_estimate(group)

    def _due_reason(self, group: _Group, now: float) -> str | None:
        if now >= group.oldest_arrival + self.policy.max_wait_s:
            return "max-wait"
        deadline = group.min_deadline()
        if deadline is not None and now >= self._deadline_trigger(group, deadline):
            return "deadline-pressure"
        return None

    def _flush(self, group: _Group, now: float, reason: str) -> CoalescedBatch:
        """Cut up to ``max_batch`` systems from a group into one batch.

        Requests leave in arrival order (the admission queue already
        applied weighted fair ordering across tenants); a remainder stays
        behind with its wait clock reset to the remainder's oldest entry.
        """
        take: list[tuple[SolveRequest, SolveTicket]] = []
        systems = 0
        while group.entries:
            req, _ = group.entries[0]
            if take and systems + req.num_systems > self.policy.max_batch:
                break
            take.append(group.entries.pop(0))
            systems += req.num_systems
        if group.entries:
            group.oldest_arrival = now
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
