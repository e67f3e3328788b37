"""Predefined proxy-app scenarios, including multi-ion plasmas.

The proxy app (and therefore the paper's evaluation) simulates "a plasma
with one ion species (along with electrons)", but "the future XGC
application is expected to simulate multiple ion species (~10) and
electrons".  The batched-solver design is what makes that cheap: more
species per node just means more systems in the batch, all sharing the
stencil pattern.

This module provides :func:`multi_ion`, a deuterium-tritium
burning-plasma mix with a carbon impurity (4 species per node) that
prefigures the multi-species future (the paper's own electron + deuterium
setup is :class:`ProxyAppConfig`'s default), and the operator-zoo
scenarios of :data:`OPERATOR_SCENARIOS`.

Additional heavy species are defined here rather than in
:mod:`repro.xgc.species` because only the two-species set is part of the
paper's evaluated configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import AbsoluteResidual, make_solver
from ..core.types import SolveResult
from .conservation import (
    ConservationReport,
    check_conservation,
    check_multispecies_conservation,
)
from .operators import (
    CollisionOperator1D,
    ParallelVelocityGrid,
    dougherty_operator,
    grid_maxwellian,
    landau_coupled_operator,
    lenard_bernstein_operator,
)
from .proxyapp import ProxyAppConfig
from .species import DEUTERON, ELECTRON, Species

__all__ = [
    "TRITON",
    "CARBON",
    "multi_ion",
    "OperatorScenario",
    "OperatorStepOutcome",
    "run_operator_scenario",
]

#: Tritium ion (m_T / m_e ~ 5497).
TRITON = Species(name="triton", mass=5497.0, charge=1.0)

#: Fully-stripped carbon-12 impurity (m_C / m_e ~ 21875).
CARBON = Species(name="carbon", mass=21875.0, charge=6.0)


def multi_ion(num_mesh_nodes: int = 4, **overrides) -> ProxyAppConfig:
    """A D-T burning-plasma mix with a carbon impurity (4 species/node).

    The batch grows to ``4 * num_mesh_nodes`` systems; the heavier species
    are progressively less collisional (``nu ~ 1/sqrt(m)``), so the batch
    spans a wide per-system difficulty range — a stress test for the
    per-system convergence monitoring.
    """
    return ProxyAppConfig(
        num_mesh_nodes=num_mesh_nodes,
        species=(ELECTRON, DEUTERON, TRITON, CARBON),
        **overrides,
    )


# ---------------------------------------------------------------------------
# Operator-zoo scenarios (PR 10): tridiagonal model collision operators.
# ---------------------------------------------------------------------------

#: Model mass-comparable mixture for the coupled Landau scenario — a
#: D-T-He-like triple in reduced units, so all species resolve on one
#: shared thermal-velocity grid (real XGC normalises per species; the
#: coupling algebra is identical).
LANDAU_MIX = (
    Species(name="model-d", mass=1.0, charge=1.0),
    Species(name="model-t", mass=1.5, charge=1.0),
    Species(name="model-he", mass=2.0, charge=2.0),
)


@dataclass(frozen=True)
class OperatorScenario:
    """One predefined operator-zoo workload with its acceptance envelope.

    ``momentum_tol`` / ``energy_tol`` are the *operator-appropriate*
    conservation tolerances: Dougherty conserves both to discretisation
    accuracy, the multi-species coupling to the frozen-coefficient
    backward-Euler error ``O((dt nu)^2)``, and Lenard-Bernstein relaxes
    them by design (its envelope only bounds the per-step relaxation of a
    near-equilibrium state).  Density is exact for all three and is the
    hard gate, exactly as in the paper's tolerance study.
    """

    name: str
    description: str
    momentum_tol: float
    energy_tol: float
    num_nodes: int = 8
    multispecies: bool = False

    def build(
        self, num_nodes: int | None = None, seed: int = 0
    ) -> tuple[CollisionOperator1D, np.ndarray]:
        """Deterministically build ``(operator, f0)``; ``f0`` is flat
        ``(num_systems, nv)``."""
        nodes = self.num_nodes if num_nodes is None else num_nodes
        grid = ParallelVelocityGrid(nv=64, v_max=6.0)
        rng = np.random.default_rng(20220157 + seed)
        if self.name == "lenard_bernstein":
            nb = nodes
            density = 1.0 + 0.2 * rng.random(nb)
            f0 = grid_maxwellian(grid, density, np.zeros(nb), np.ones(nb))
            # Even perturbation: momentum stays zero by symmetry, so the
            # report isolates the operator's energy relaxation.
            v = grid.centers()
            bump = 1.0 + 0.01 * np.cos(
                np.pi * v[None, :] / grid.v_max
            ) * (1.0 + 0.5 * rng.random((nb, 1)))
            f0 = f0 * bump
            op = lenard_bernstein_operator(
                grid, nu=1.0, vt2=1.0, dt=0.05, num_batch=nb
            )
            return op, f0
        if self.name == "dougherty":
            nb = nodes
            density = 1.0 + 0.2 * rng.random(nb)
            u0 = 0.4 * rng.standard_normal(nb)
            t0 = 1.0 + 0.3 * rng.random(nb)
            f0 = grid_maxwellian(grid, density, u0, t0)
            f0 = f0 * (1.0 + 0.05 * rng.random((nb, grid.nv)))
            op = dougherty_operator(grid, f0, nu=1.0, dt=0.1)
            return op, f0
        if self.name == "landau":
            ns = len(LANDAU_MIX)
            masses = np.array([s.mass for s in LANDAU_MIX])
            density = 1.0 + 0.2 * rng.random((nodes, ns))
            u0 = 0.3 * rng.standard_normal((nodes, ns))
            t0 = (1.0 + 0.3 * rng.random((nodes, ns))) / masses
            f0 = grid_maxwellian(
                grid, density.ravel(), u0.ravel(), t0.ravel()
            ).reshape(nodes, ns, grid.nv)
            f0 = f0 * (1.0 + 0.03 * rng.random(f0.shape))
            op = landau_coupled_operator(
                grid, f0, LANDAU_MIX, nu0=1.0, dt=0.05
            )
            return op, f0.reshape(nodes * ns, grid.nv)
        raise ValueError(f"unknown operator scenario {self.name!r}")

    def check(
        self, op: CollisionOperator1D, f_before: np.ndarray, f_after: np.ndarray
    ) -> ConservationReport:
        """Route the conservation check through the right moment set."""
        if self.multispecies:
            ns = len(op.species)
            shape = (-1, ns, op.num_rows)
            return check_multispecies_conservation(
                op.grid,
                np.array([s.mass for s in op.species]),
                np.asarray(f_before).reshape(shape),
                np.asarray(f_after).reshape(shape),
            )
        return check_conservation(op.grid, f_before, f_after)

    def conserves(self, report: ConservationReport) -> bool:
        """Whether a report satisfies this scenario's full envelope."""
        return bool(
            report.all_ok
            and report.momentum_drift.max() <= self.momentum_tol
            and report.energy_drift.max() <= self.energy_tol
        )


#: The predefined operator-zoo scenarios, keyed by name.
OPERATOR_SCENARIOS: dict[str, OperatorScenario] = {
    s.name: s
    for s in (
        OperatorScenario(
            name="lenard_bernstein",
            description="drag-diffusion toward a fixed centred Maxwellian",
            momentum_tol=1e-10,
            energy_tol=5e-3,
        ),
        OperatorScenario(
            name="dougherty",
            description="self-consistent Dougherty (moments from f itself)",
            momentum_tol=1e-4,
            energy_tol=1e-4,
        ),
        OperatorScenario(
            name="landau",
            description="multi-species Landau coupling, symmetrised Dougherty",
            momentum_tol=2e-3,
            energy_tol=2e-3,
            num_nodes=4,
            multispecies=True,
        ),
    )
}


@dataclass(frozen=True)
class OperatorStepOutcome:
    """One backward-Euler step of an operator scenario, with diagnostics."""

    scenario: OperatorScenario
    operator: CollisionOperator1D
    f_before: np.ndarray
    result: SolveResult
    report: ConservationReport

    @property
    def ok(self) -> bool:
        """Converged and inside the scenario's conservation envelope."""
        return bool(self.result.converged.all()) and self.scenario.conserves(
            self.report
        )


def run_operator_scenario(
    scenario: OperatorScenario | str,
    *,
    solver: str = "thomas",
    fmt: str = "tridiag",
    num_nodes: int | None = None,
    seed: int = 0,
    tolerance: float = 1e-12,
    max_iter: int = 1000,
) -> OperatorStepOutcome:
    """Build a scenario and advance it one backward-Euler (first Picard) step.

    ``solver="thomas"`` takes the related-work direct path; any registered
    iterative solver name takes ``fmt`` (``tridiag`` systems convert to
    ``dia``/``csr`` for the iterative kernels).
    """
    if isinstance(scenario, str):
        scenario = OPERATOR_SCENARIOS[scenario]
    op, f0 = scenario.build(num_nodes=num_nodes, seed=seed)
    if solver == "thomas":
        result = op.solve_direct(f0)
    else:
        s = make_solver(
            solver,
            preconditioner="jacobi",
            criterion=AbsoluteResidual(tolerance),
            max_iter=max_iter,
        )
        result = s.solve(op.matrix(fmt), f0)
    report = scenario.check(op, f0, result.x)
    return OperatorStepOutcome(
        scenario=scenario,
        operator=op,
        f_before=f0,
        result=result,
        report=report,
    )
