"""Quality-of-service layer: fairness, deadlines, backpressure.

Three concerns, one module:

* **Weighted fair admission** — :class:`FairScheduler` implements stride
  scheduling over tenant lanes: each tenant carries a virtual *pass* that
  advances by ``work / weight`` whenever one of its requests is taken, and
  the lane with the smallest pass drains next (ties resolve by tenant
  name, so the order is deterministic).  A tenant with weight 3 receives
  3x the service of a weight-1 tenant under contention, and an idle
  tenant's pass is clamped forward on reactivation so it cannot hoard
  credit.

* **Deadlines** — every request gets an absolute virtual-time deadline
  (its own, or tenant default submit-time + ``deadline_s``).  The
  coalescer flushes a group early when the tightest deadline's remaining
  slack drops below the estimated service time plus
  ``deadline_headroom_s``; the dispatcher records misses on the ticket.

* **Backpressure** — admission consults :meth:`QosPolicy.admission` with
  the service's total pending-request count: below
  ``degrade_watermark * capacity`` requests are admitted as-is; between
  the watermark and ``capacity`` they are *degraded* onto the
  fp32/refinement precision ladder (cheaper modelled traffic, same
  tolerance via iterative refinement) when the request allows it; at
  ``capacity`` they are shed.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ADMIT", "DEGRADE", "SHED", "FairScheduler", "QosPolicy", "TenantSpec"]

#: Admission verdicts.
ADMIT = "admit"
DEGRADE = "degrade"
SHED = "shed"


@dataclass(frozen=True)
class TenantSpec:
    """Per-tenant QoS parameters.

    Attributes
    ----------
    name:
        Tenant id matched against :attr:`SolveRequest.tenant`.
    weight:
        Fair-share weight (relative service rate under contention).
    deadline_s:
        Default relative deadline applied to requests that carry none;
        ``None`` leaves such requests deadline-free.
    """

    name: str
    weight: float = 1.0
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.weight <= 0.0:
            raise ValueError(f"tenant weight must be positive, got {self.weight}")
        if self.deadline_s is not None and self.deadline_s <= 0.0:
            raise ValueError("deadline_s must be positive or None")


@dataclass
class QosPolicy:
    """Service-wide QoS configuration.

    Attributes
    ----------
    capacity:
        Pending-request bound (admission queue + coalescer + dispatch
        backlog).  Submissions at or above it are shed.
    degrade_watermark:
        Fraction of ``capacity`` above which admissions degrade to the
        low-precision ladder (when the request allows it).  ``1.0``
        disables degradation.
    degraded_precision:
        Precision policy of the degraded ladder's inner solver
        (``"fp32"`` or ``"mixed"``); the outer refinement loop still
        verifies against the request's fp64 tolerance.
    deadline_headroom_s:
        Safety margin the coalescer keeps between a group's estimated
        completion and its tightest deadline before it force-flushes.
    tenants:
        Known tenant specs; unknown tenants get weight 1 and no default
        deadline.
    """

    capacity: int = 256
    degrade_watermark: float = 0.75
    degraded_precision: str = "mixed"
    deadline_headroom_s: float = 1e-3
    tenants: tuple[TenantSpec, ...] = ()

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("capacity must be at least 1")
        if not 0.0 < self.degrade_watermark <= 1.0:
            raise ValueError("degrade_watermark must lie in (0, 1]")
        if self.deadline_headroom_s < 0.0:
            raise ValueError("deadline_headroom_s must be non-negative")

    def tenant(self, name: str) -> TenantSpec:
        """The spec for ``name`` (default weight-1 spec when unknown)."""
        for spec in self.tenants:
            if spec.name == name:
                return spec
        return TenantSpec(name)

    def weights(self) -> dict[str, float]:
        return {spec.name: spec.weight for spec in self.tenants}

    def admission(self, pending: int, *, allow_degrade: bool = True) -> str:
        """Admission verdict for a new request given the current backlog."""
        if pending >= self.capacity:
            return SHED
        if (
            self.degrade_watermark < 1.0
            and pending >= self.degrade_watermark * self.capacity
            and allow_degrade
        ):
            return DEGRADE
        return ADMIT

    def deadline_for(
        self, tenant: str, submit_time: float, explicit: float | None
    ) -> float | None:
        """Absolute deadline of a request submitted now (or ``None``)."""
        if explicit is not None:
            return float(explicit)
        spec = self.tenant(tenant)
        if spec.deadline_s is None:
            return None
        return submit_time + spec.deadline_s


class FairScheduler:
    """Deterministic stride scheduler over tenant lanes.

    Parameters
    ----------
    weights:
        ``{tenant: weight}``; unknown tenants default to weight 1.
    """

    def __init__(self, weights: dict[str, float] | None = None) -> None:
        self._weights = dict(weights or {})
        self._passes: dict[str, float] = {}
        #: Virtual time: the pass of the most recently charged tenant.
        #: Tenants returning from idle are clamped to it, so an idle
        #: period earns no retroactive credit.
        self._vtime = 0.0

    def weight(self, tenant: str) -> float:
        return self._weights.get(tenant, 1.0)

    def pick(self, candidates: tuple[str, ...]) -> str:
        """The candidate tenant with the smallest virtual pass.

        Ties break lexicographically by name, so the outcome is a pure
        function of the charge history.
        """
        if not candidates:
            raise ValueError("no candidate tenants to pick from")
        return min(
            candidates, key=lambda t: (self._passes.get(t, self._vtime), t)
        )

    def charge(self, tenant: str, work: float = 1.0) -> None:
        """Advance ``tenant``'s pass by ``work / weight``."""
        current = max(self._passes.get(tenant, self._vtime), self._vtime)
        self._passes[tenant] = current + float(work) / self.weight(tenant)
        self._vtime = current
