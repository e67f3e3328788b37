"""Typed configuration space for the autotuning gym.

The hand rules in :mod:`repro.gpu.tuning` pick one point — format from the
pattern, pipelined variant from the batch size, fp64, the hardware's
default shared-memory residency.  The gym instead enumerates the full
cross product

    solver × format × precision × gmres_restart × residency × compaction

over the same analytic GPU cost model that the hand rules consult.  This
module is the *space*: a frozen, hashable :class:`TuneConfig` point type
with a stable dict round-trip, and a :class:`ConfigSpace` that knows which
points are valid for a scenario and enumerates them.

Validity is per-scenario: the XGC collision batch is diagonal-structured
(DIA applies) and the mixed policy's fp64 residual correction is pinned
to Picard parity, but pure fp32 cannot reach the 1e-10 tolerance, so an
XGC space masks ``"fp32"`` out.  A restart length only distinguishes
GMRES-family configurations, so every non-GMRES config carries the
canonical restart — without that rule the same physical configuration
would appear once per restart choice and inflate the space.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.precision import POLICIES, precision_policy
from ..core.solvers.schedule import solver_schedule

__all__ = [
    "CANONICAL_RESTART",
    "COMPACTION_CHOICES",
    "FORMAT_CHOICES",
    "RESIDENCY_CHOICES",
    "RESTART_CHOICES",
    "ConfigSpace",
    "TuneConfig",
    "space_for_scenario",
]

#: Batched matrix formats the kernels implement (Section IV-A/IV-E).
FORMAT_CHOICES = ("csr", "ell", "dia")

#: GMRES restart lengths worth distinguishing: the restart sizes the
#: Krylov basis the §IV-D placement must hold, so it trades convergence
#: against shared-memory residency.
RESTART_CHOICES = (10, 30, 60)

#: Restart carried by every non-GMRES configuration (ignored by the
#: solver, kept canonical so configs stay unique).
CANONICAL_RESTART = 30

#: Shared-memory residency targets: the §IV-D budget is the per-CU shared
#: memory divided by the target, so 1 block/CU gets the whole scratchpad
#: (most vectors resident, least latency hiding) while 4 blocks/CU spill
#: more vectors but overlap more blocks.
RESIDENCY_CHOICES = (1, 2, 4)

#: Batch-compaction thresholds: re-compact the active batch once the
#: active fraction drops below the threshold (0 disables).  Priced as a
#: relaunch + copy overhead by the evaluation harness.
COMPACTION_CHOICES = (0.0, 0.25, 0.5)


@dataclass(frozen=True)
class TuneConfig:
    """One point of the autotuning space (frozen, hashable).

    Attributes
    ----------
    solver:
        Solver-variant name from the :mod:`~repro.core.solvers.schedule`
        registry (``"bicgstab"``, ``"pipelined_bicgstab"``, ...).
    fmt:
        Matrix format (``"csr"``, ``"ell"``, ``"dia"``).
    precision:
        Precision-policy name (``"fp64"``, ``"fp32"``, ``"mixed"``).
    gmres_restart:
        Restart length; meaningful for the GMRES family, canonical
        (:data:`CANONICAL_RESTART`) otherwise.
    target_blocks_per_cu:
        Residency target that sizes the §IV-D shared-memory budget.
    compaction_threshold:
        Active-fraction threshold below which the batch is re-compacted
        (0 disables compaction).
    """

    solver: str
    fmt: str
    precision: str
    gmres_restart: int = CANONICAL_RESTART
    target_blocks_per_cu: int = 2
    compaction_threshold: float = 0.0

    @property
    def value_bytes(self) -> int:
        """Bytes per stored value under this config's precision policy."""
        return precision_policy(self.precision).value_bytes

    def to_dict(self) -> dict:
        """JSON-ready representation (stable keys, plain types)."""
        return {
            "solver": self.solver,
            "fmt": self.fmt,
            "precision": self.precision,
            "gmres_restart": int(self.gmres_restart),
            "target_blocks_per_cu": int(self.target_blocks_per_cu),
            "compaction_threshold": float(self.compaction_threshold),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TuneConfig":
        """Inverse of :meth:`to_dict` (exact round-trip)."""
        return cls(
            solver=data["solver"],
            fmt=data["fmt"],
            precision=data["precision"],
            gmres_restart=int(data["gmres_restart"]),
            target_blocks_per_cu=int(data["target_blocks_per_cu"]),
            compaction_threshold=float(data["compaction_threshold"]),
        )


def _is_gmres(solver: str) -> bool:
    return "gmres" in solver


@dataclass(frozen=True)
class ConfigSpace:
    """The enumerable cross product with its validity mask.

    Each attribute lists the admissible values of one dimension; a config
    is valid when every field is drawn from its dimension AND the restart
    rule holds (non-GMRES solvers carry :data:`CANONICAL_RESTART`).
    """

    solvers: tuple = ("bicgstab", "pipelined_bicgstab", "cgs", "gmres")
    formats: tuple = FORMAT_CHOICES
    precisions: tuple = ("fp64", "mixed")
    gmres_restarts: tuple = RESTART_CHOICES
    residency_targets: tuple = RESIDENCY_CHOICES
    compaction_thresholds: tuple = COMPACTION_CHOICES

    def __post_init__(self):
        for solver in self.solvers:
            solver_schedule(solver)  # raises on unknown names
        for precision in self.precisions:
            if precision not in POLICIES:
                raise ValueError(f"unknown precision {precision!r}")
        for fmt in self.formats:
            if fmt not in FORMAT_CHOICES:
                raise ValueError(f"unknown format {fmt!r}")

    # -- membership ---------------------------------------------------
    def is_valid(self, config: TuneConfig) -> bool:
        """Whether ``config`` lies in this space (mask included)."""
        if config.solver not in self.solvers:
            return False
        if config.fmt not in self.formats:
            return False
        if config.precision not in self.precisions:
            return False
        if config.target_blocks_per_cu not in self.residency_targets:
            return False
        if config.compaction_threshold not in self.compaction_thresholds:
            return False
        if _is_gmres(config.solver):
            return config.gmres_restart in self.gmres_restarts
        return config.gmres_restart == CANONICAL_RESTART

    def _restarts_for(self, solver: str) -> tuple:
        return self.gmres_restarts if _is_gmres(solver) else (CANONICAL_RESTART,)

    def size(self) -> int:
        """Number of valid configurations."""
        solver_combos = sum(len(self._restarts_for(s)) for s in self.solvers)
        return (
            solver_combos * len(self.formats) * len(self.precisions)
            * len(self.residency_targets) * len(self.compaction_thresholds)
        )

    def enumerate(self):
        """Yield every valid configuration (deterministic order)."""
        for solver in self.solvers:
            for restart in self._restarts_for(solver):
                for fmt in self.formats:
                    for precision in self.precisions:
                        for target in self.residency_targets:
                            for thr in self.compaction_thresholds:
                                yield TuneConfig(
                                    solver=solver, fmt=fmt,
                                    precision=precision,
                                    gmres_restart=restart,
                                    target_blocks_per_cu=target,
                                    compaction_threshold=thr,
                                )


def space_for_scenario(scenario) -> ConfigSpace:
    """Build the valid space for a :class:`~repro.tune.env.TuneScenario`.

    The scenario's masks drive the dimensions: its solver list (only
    solvers whose convergence it has iteration counts for), its format
    list (DIA only for diagonal-structured patterns), and its precision
    gates (``allow_fp32`` — pure single reaching the tolerance;
    ``allow_mixed`` — fp32 streaming with fp64 correction).  A scenario
    *name* (``"xgc"``, ``"dougherty"``, ``"lenard_bernstein"``,
    ``"landau"``) resolves through
    :func:`~repro.tune.env.named_scenario` first.
    """
    if isinstance(scenario, str):
        from .env import named_scenario

        scenario = named_scenario(scenario)
    precisions = ["fp64"]
    if scenario.allow_fp32:
        precisions.append("fp32")
    if scenario.allow_mixed:
        precisions.append("mixed")
    return ConfigSpace(
        solvers=tuple(scenario.solvers),
        formats=tuple(scenario.formats),
        precisions=tuple(precisions),
    )
