"""End-to-end collision-kernel proxy app.

This is the reproduction of the XGC proxy app of Section II-A: a batch of
independent collision problems — one per (spatial mesh node, species) pair —
advanced with backward Euler + Picard, where every linear solve is one
batched solver call over the whole batch.  Ion and electron systems are
interleaved node by node, giving the equal-mix batches every figure in the
paper uses.

Mesh nodes are distinguished by their plasma profiles: density, temperature
and flow vary across nodes (sampled around edge-plasma-like profiles), so
the batch entries share a sparsity pattern but differ in values and in
convergence behaviour — the workload property the per-system monitoring is
designed for.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..utils.validation import check_positive
from .assembly import CollisionStencil
from .grid import VelocityGrid
from .maxwellian import maxwellian
from .picard import PicardOptions, PicardStepper, PicardStepResult
from .species import DEUTERON, ELECTRON, Species

__all__ = ["ProxyAppConfig", "CollisionProxyApp", "ProxyAppResult"]


@dataclass(frozen=True)
class ProxyAppConfig:
    """Configuration of a proxy-app run.

    Attributes
    ----------
    num_mesh_nodes:
        Spatial mesh nodes; the batch holds ``num_mesh_nodes *
        len(species)`` systems.
    grid:
        Velocity grid shared by all systems (default 32x31 -> n = 992).
    species:
        Species present at every node (default: electron + deuteron, the
        proxy app's one-ion-plus-electrons plasma).
    dt:
        Backward-Euler time step (calibrated so the electron systems need
        ~35 BiCGSTAB iterations at zero guess, as in the paper).
    nu_ref, eta:
        Collision-operator parameters (see :mod:`repro.xgc.collision`).
    picard:
        Inner Picard/linear-solver options.
    profile_variation:
        Relative spread of the per-node density/temperature/flow profiles.
    seed:
        RNG seed for the node profiles.
    """

    num_mesh_nodes: int = 8
    grid: VelocityGrid = field(default_factory=VelocityGrid)
    species: tuple[Species, ...] = (ELECTRON, DEUTERON)
    dt: float = 0.05
    nu_ref: float = 1.0
    eta: float = 0.3
    kurtosis_gamma: float = 2.0
    picard: PicardOptions = field(default_factory=PicardOptions)
    profile_variation: float = 0.25
    seed: int = 2022

    def __post_init__(self) -> None:
        check_positive(self.num_mesh_nodes, "num_mesh_nodes")
        check_positive(self.dt, "dt")
        if not self.species:
            raise ValueError("at least one species is required")

    @property
    def num_batch(self) -> int:
        """Total systems per linear solve."""
        return self.num_mesh_nodes * len(self.species)


@dataclass
class ProxyAppResult:
    """Outcome of a proxy-app run.

    Attributes
    ----------
    f_final:
        Final distributions, shape ``(num_batch, n)``.
    step_results:
        One :class:`~repro.xgc.picard.PicardStepResult` per time step.
    """

    f_final: np.ndarray
    step_results: list[PicardStepResult]

    def linear_iterations_by_species(
        self, config: ProxyAppConfig
    ) -> dict[str, np.ndarray]:
        """Mean per-Picard-iteration solver iterations, per species.

        Returns ``{species_name: array (num_steps, picard_iters)}`` of
        batch-mean iteration counts — the Table III data.
        """
        ns = len(config.species)
        out = {}
        for s_idx, sp in enumerate(config.species):
            rows = []
            for step in self.step_results:
                rows.append(step.linear_iterations[:, s_idx::ns].mean(axis=1))
            out[sp.name] = np.array(rows)
        return out


class CollisionProxyApp:
    """Driver owning the batch state, the stencil, and the stepper."""

    def __init__(self, config: ProxyAppConfig | None = None) -> None:
        self.config = config or ProxyAppConfig()
        cfg = self.config
        self.stencil = CollisionStencil(cfg.grid)
        # Species mass per batch entry, node-major / species-minor
        # (node 0: e, ion; node 1: e, ion; ...).
        self.masses = np.tile(
            np.array([s.mass for s in cfg.species]), cfg.num_mesh_nodes
        )
        self.stepper = PicardStepper(
            cfg.grid,
            self.masses,
            nu_ref=cfg.nu_ref,
            eta=cfg.eta,
            kurtosis_gamma=cfg.kurtosis_gamma,
            options=cfg.picard,
            stencil=self.stencil,
        )

    # -- state construction ---------------------------------------------------

    def node_profiles(self) -> dict[str, np.ndarray]:
        """Per-node plasma profiles (density, temperatures, flows).

        Nodes are spread across a pseudo-radial coordinate; profiles decay
        outward like an edge pedestal, plus seeded random variation.
        """
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        r = np.linspace(0.0, 1.0, cfg.num_mesh_nodes)
        var = cfg.profile_variation

        density = (1.0 - 0.5 * r) * (1.0 + var * (rng.random(r.size) - 0.5))
        temp_hot = (2.5 - 1.2 * r) * (1.0 + var * (rng.random(r.size) - 0.5))
        temp_cold = (0.8 - 0.2 * r) * (1.0 + var * (rng.random(r.size) - 0.5))
        flow = 1.0 * (1.0 - r) * (rng.random(r.size) - 0.3)
        hot_fraction = 0.2 + 0.2 * rng.random(r.size)
        return {
            "density": density,
            "temp_hot": temp_hot,
            "temp_cold": temp_cold,
            "flow": flow,
            "hot_fraction": hot_fraction,
        }

    def initial_state(self) -> np.ndarray:
        """Off-equilibrium initial distributions, shape ``(num_batch, n)``.

        Each node/species starts as a two-temperature drifting mixture —
        far enough from Maxwellian that the Picard loop does real work and
        the warm-start decay of Table III is visible.
        """
        cfg = self.config
        prof = self.node_profiles()
        f = np.empty((cfg.num_batch, cfg.grid.num_cells))
        k = 0
        for node in range(cfg.num_mesh_nodes):
            for s_idx, _sp in enumerate(cfg.species):
                # Edge plasmas are typically hotter in the electrons than
                # the ions; scale the second (ion) species down a bit so
                # the two spectra per node genuinely differ.
                t_scale = 1.0 if s_idx == 0 else 0.75
                hot = prof["hot_fraction"][node]
                f[k] = (1.0 - hot) * maxwellian(
                    cfg.grid,
                    density=prof["density"][node],
                    temperature=t_scale * prof["temp_cold"][node],
                    mean_v_par=-0.5 * prof["flow"][node],
                ) + hot * maxwellian(
                    cfg.grid,
                    density=prof["density"][node],
                    temperature=t_scale * prof["temp_hot"][node],
                    mean_v_par=1.5 * prof["flow"][node],
                )
                k += 1
        return f

    # -- matrix access for benchmarks ---------------------------------------

    def build_matrices(self, f: np.ndarray | None = None):
        """Assemble the batched matrix at a state (default: initial state).

        Returns ``(matrix, rhs)`` in the configured format — the
        representative "XGC matrices" used by the solver benchmarks.
        """
        if f is None:
            f = self.initial_state()
        matrix = self.stepper.assemble(f, self.config.dt)
        return matrix, f

    # -- driver ----------------------------------------------------------------

    def run(self, num_steps: int = 1, f0: np.ndarray | None = None) -> ProxyAppResult:
        """Run ``num_steps`` backward-Euler steps from ``f0``."""
        if f0 is None:
            f0 = self.initial_state()
        f, results = self.stepper.run(f0, self.config.dt, num_steps)
        return ProxyAppResult(f_final=f, step_results=results)
