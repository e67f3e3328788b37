"""Operator zoo: batched 1-D drift-diffusion collision operators.

The paper evaluates one operator — the nonlinear Fokker-Planck-Landau
stencil on the 2-D velocity grid — but the batched-solver machinery is
operator-agnostic.  This module adds the two classic *model* collision
operators of gyrokinetic codes, discretised so that every batch system is
**tridiagonal** and therefore exercises the related-work direct path
(:mod:`repro.core.solvers.tridiag`) against the paper's iterative solvers:

* **Lenard-Bernstein** — drag-diffusion toward a *fixed* Maxwellian
  (zero flow, prescribed temperature).  Density is conserved; momentum
  and energy *relax* by design.
* **Dougherty** — the self-consistent variant: drift and diffusion
  coefficients are the distribution's own discrete moments, so density,
  momentum and energy are all conserved (momentum/energy to
  discretisation accuracy).
* **Multi-species Landau coupling** (Adams et al., arXiv:2209.03228) —
  each species relaxes against every other through pairwise Dougherty
  operators with symmetrised coefficients; species-wise densities are
  conserved individually while total momentum and energy are conserved
  across the species of one mesh node.

Discretisation
--------------
All three share one conservative finite-volume core.  On a uniform grid
of ``n`` cells in the parallel velocity, the operator is written in the
symmetric Fokker-Planck form

.. math:: L f = \\partial_v \\big( D\\, f_M\\, \\partial_v (f / f_M) \\big),

with the face weight :math:`f_{M,i+1/2} = \\sqrt{f_{M,i} f_{M,i+1}}` (the
geometric mean).  Zero-flux boundaries make the fluxes telescope, so
density is conserved to machine precision; :math:`f = f_M` is an *exact*
discrete equilibrium (the face flux is identically zero); and the matrix
``B = diag(w) L diag(f_M)`` is symmetric negative-semidefinite, which is
what makes the backward-Euler matrix ``M = I - dt\\,\\nu L`` solvable by
every general (not SPD-only) solver in the registry.

The assembled systems come out in the interleaved tridiagonal layout
(:class:`repro.core.solvers.tridiag.BatchTridiag`), the gather-free DIA
band layout with offsets ``(-1, 0, 1)``, or CSR — the same formats the
GPU cost model prices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.batch_dia import BatchDia
from ..core.convert import to_format, tridiag_to_dia
from ..core.solvers.tridiag import BatchThomas, BatchTridiag
from ..core.types import DTYPE, SolveResult
from .species import Species

__all__ = [
    "ParallelVelocityGrid",
    "CollisionOperator1D",
    "grid_maxwellian",
    "grid_moments",
    "lenard_bernstein_operator",
    "dougherty_operator",
    "landau_coupled_operator",
]


@dataclass(frozen=True)
class ParallelVelocityGrid:
    """Uniform 1-D grid in the parallel velocity, ``v in [-v_max, v_max]``.

    Cell-centred with ``nv`` cells of width ``2 v_max / nv``.  Implements
    the same two-method moment interface as the 2-D
    :class:`repro.xgc.grid.VelocityGrid` (``cell_volumes`` /
    ``flat_coords``), so :func:`repro.xgc.conservation.check_conservation`
    applies unchanged — the perpendicular coordinate is identically zero.
    """

    nv: int = 64
    v_max: float = 6.0

    def __post_init__(self) -> None:
        if self.nv < 3:
            raise ValueError("need at least 3 cells for a tridiagonal stencil")
        if self.v_max <= 0:
            raise ValueError("v_max must be positive")

    @property
    def num_cells(self) -> int:
        return self.nv

    @property
    def spacing(self) -> float:
        """Uniform cell width."""
        return 2.0 * self.v_max / self.nv

    def centers(self) -> np.ndarray:
        """Cell-centre velocities, shape ``(nv,)``."""
        h = self.spacing
        return -self.v_max + h * (np.arange(self.nv, dtype=DTYPE) + 0.5)

    def cell_volumes(self) -> np.ndarray:
        """Cell measures (uniform), shape ``(nv,)``."""
        return np.full(self.nv, self.spacing, dtype=DTYPE)

    def flat_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """``(v_par, v_perp)`` per cell; ``v_perp`` is identically zero."""
        return self.centers(), np.zeros(self.nv, dtype=DTYPE)


def grid_maxwellian(
    grid: ParallelVelocityGrid,
    density: np.ndarray,
    u: np.ndarray,
    vt2: np.ndarray,
) -> np.ndarray:
    """Batch of 1-D Maxwellians with the given moments.

    ``density``, ``u`` and ``vt2`` (thermal speed squared, ``T/m``) are
    per-system arrays ``(nb,)``; the result is ``(nb, nv)``.
    """
    v = grid.centers()
    density = np.atleast_1d(np.asarray(density, dtype=DTYPE))
    u = np.atleast_1d(np.asarray(u, dtype=DTYPE))
    vt2 = np.atleast_1d(np.asarray(vt2, dtype=DTYPE))
    if np.any(vt2 <= 0):
        raise ValueError("vt2 must be positive")
    norm = density / np.sqrt(2.0 * np.pi * vt2)
    arg = -((v[None, :] - u[:, None]) ** 2) / (2.0 * vt2[:, None])
    return norm[:, None] * np.exp(arg)


def grid_moments(
    grid: ParallelVelocityGrid, f: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Discrete ``(density, mean velocity, thermal speed^2)`` of a batch."""
    f = np.atleast_2d(np.asarray(f, dtype=DTYPE))
    w = grid.cell_volumes()
    v = grid.centers()
    n = f @ w
    if np.any(n <= 0):
        raise ValueError("non-positive density")
    u = (f @ (w * v)) / n
    vt2 = (f @ (w * v**2)) / n - u**2
    if np.any(vt2 <= 0):
        raise ValueError("non-positive temperature")
    return n, u, vt2


class CollisionOperator1D:
    """Backward-Euler matrix of a batched 1-D collision operator.

    Represents ``M = I - A`` with ``A = sum_p weight_p L_p``, where each
    *part* ``p`` is one drift-diffusion operator in symmetric
    Fokker-Planck form against its own equilibrium ``f_eq_p`` and
    ``weight_p = dt * nu_p * vt2_p`` carries the time step, collision
    frequency and diffusion strength.  Single-part instances are the
    Lenard-Bernstein / Dougherty operators; the multi-species Landau
    coupling contributes one part per collision partner (a sum of
    tridiagonal operators is tridiagonal, so the solver path is
    unchanged).

    Parameters
    ----------
    grid:
        The shared :class:`ParallelVelocityGrid`.
    weights:
        Part weights, shape ``(nb, num_parts)``; must be non-negative.
    equilibria:
        Part equilibria, shape ``(nb, num_parts, nv)``, strictly positive.
    """

    def __init__(
        self,
        grid: ParallelVelocityGrid,
        weights: np.ndarray,
        equilibria: np.ndarray,
    ):
        weights = np.atleast_2d(np.asarray(weights, dtype=DTYPE))
        equilibria = np.asarray(equilibria, dtype=DTYPE)
        if equilibria.ndim == 2:
            equilibria = equilibria[:, None, :]
        nb, num_parts = weights.shape
        if equilibria.shape != (nb, num_parts, grid.nv):
            raise ValueError(
                f"equilibria must have shape ({nb}, {num_parts}, {grid.nv}), "
                f"got {equilibria.shape}"
            )
        if np.any(weights < 0):
            raise ValueError("part weights must be non-negative")
        if np.any(equilibria <= 0):
            raise ValueError("equilibria must be strictly positive")

        self.grid = grid
        self._weights = weights
        self._equilibria = equilibria

        # A = sum_p w_p L_p, assembled band-wise.  Off-diagonals first:
        #   A[i, i+1] = w_p m_i / (h^2 feq_{i+1}),  m_i = sqrt(feq_i feq_{i+1})
        #   A[i+1, i] = w_p m_i / (h^2 feq_i)
        # then the diagonal from the accumulated off-diagonal bands, so the
        # weighted column sums (density conservation) cancel to rounding.
        h2 = grid.spacing**2
        m = np.sqrt(equilibria[:, :, :-1] * equilibria[:, :, 1:])
        w_h2 = weights[:, :, None] / h2
        adl = np.sum(w_h2 * m / equilibria[:, :, :-1], axis=1)  # (nb, n-1)
        adu = np.sum(w_h2 * m / equilibria[:, :, 1:], axis=1)  # (nb, n-1)
        ad = np.zeros((nb, grid.nv), dtype=DTYPE)
        ad[:, :-1] -= adl
        ad[:, 1:] -= adu
        self._adl, self._ad, self._adu = adl, ad, adu

    # -- shape & part introspection -----------------------------------------

    @property
    def num_batch(self) -> int:
        return self._weights.shape[0]

    @property
    def num_rows(self) -> int:
        return self.grid.nv

    @property
    def num_parts(self) -> int:
        return self._weights.shape[1]

    @property
    def weights(self) -> np.ndarray:
        """Part weights ``(nb, num_parts)`` (read-only view)."""
        return self._weights

    @property
    def equilibria(self) -> np.ndarray:
        """Part equilibria ``(nb, num_parts, nv)`` (read-only view)."""
        return self._equilibria

    # -- assembly ------------------------------------------------------------

    def bands(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(dl, d, du)`` bands of ``M = I - A``, in ``(nb, ...)`` layout."""
        return -self._adl, 1.0 - self._ad, -self._adu

    def tridiag(self) -> BatchTridiag:
        """Assemble into the interleaved tridiagonal layout."""
        return BatchTridiag(*self.bands())

    def dia(self) -> BatchDia:
        """Assemble into the gather-free DIA band layout, offsets (-1,0,1)."""
        return tridiag_to_dia(self)

    def matrix(self, fmt: str = "tridiag"):
        """Assemble into any solver-facing format.

        ``"tridiag"`` and ``"dia"`` are native; anything else goes through
        :func:`repro.core.convert.to_format` from the DIA assembly.
        """
        if fmt == "tridiag":
            return self.tridiag()
        if fmt == "dia":
            return self.dia()
        return to_format(self.dia(), fmt)

    def dense(self) -> np.ndarray:
        """Dense ``(nb, n, n)`` copies of ``M``, for reference solves."""
        dl, d, du = self.bands()
        nb, n = d.shape
        out = np.zeros((nb, n, n), dtype=DTYPE)
        idx = np.arange(n)
        out[:, idx, idx] = d
        out[:, idx[1:], idx[:-1]] = dl
        out[:, idx[:-1], idx[1:]] = du
        return out

    def part_generators(self) -> np.ndarray:
        """Weighted symmetrised generators ``B_p = w diag(vol) L_p diag(feq_p)``.

        Dense ``(nb, num_parts, n, n)`` arrays, each symmetric
        negative-semidefinite up to rounding — the discrete H-theorem
        structure the property tests pin.
        """
        nb, num_parts = self._weights.shape
        n = self.grid.nv
        h = self.grid.spacing
        out = np.zeros((nb, num_parts, n, n), dtype=DTYPE)
        idx = np.arange(n)
        m = np.sqrt(
            self._equilibria[:, :, :-1] * self._equilibria[:, :, 1:]
        )
        face = self._weights[:, :, None] * m / h  # w * m / h
        out[:, :, idx[:-1], idx[1:]] = face
        out[:, :, idx[1:], idx[:-1]] = face
        out[:, :, idx[:-1], idx[:-1]] -= face
        out[:, :, idx[1:], idx[1:]] -= face
        return out

    # -- stepping ------------------------------------------------------------

    def solve_direct(self, f: np.ndarray) -> SolveResult:
        """One backward-Euler step via the batched Thomas baseline."""
        f = np.atleast_2d(np.asarray(f, dtype=DTYPE))
        return BatchThomas().solve(self.tridiag(), f)


def lenard_bernstein_operator(
    grid: ParallelVelocityGrid,
    *,
    nu: np.ndarray,
    vt2: np.ndarray,
    dt: np.ndarray,
    num_batch: int | None = None,
) -> CollisionOperator1D:
    """Lenard-Bernstein: relaxation toward a fixed centred Maxwellian.

    ``nu``, ``vt2`` and ``dt`` broadcast to ``(num_batch,)``.  The target
    has zero flow and prescribed temperature, so the operator conserves
    density only — momentum and energy relax toward the target, which is
    the physics, not an error.
    """
    nu, vt2, dt = (np.atleast_1d(np.asarray(a, dtype=DTYPE)) for a in (nu, vt2, dt))
    nb = num_batch or max(nu.size, vt2.size, dt.size)
    nu, vt2, dt = (np.broadcast_to(a, (nb,)) for a in (nu, vt2, dt))
    feq = grid_maxwellian(grid, np.ones(nb), np.zeros(nb), vt2)
    return CollisionOperator1D(grid, (dt * nu * vt2)[:, None], feq[:, None, :])


def dougherty_operator(
    grid: ParallelVelocityGrid,
    f: np.ndarray,
    *,
    nu: np.ndarray,
    dt: np.ndarray,
) -> CollisionOperator1D:
    """Dougherty: drag-diffusion against ``f``'s own discrete moments.

    The equilibrium's flow and temperature are the moments of ``f``
    itself, so the continuum operator conserves density, momentum and
    energy; the FV discretisation keeps density exact and momentum/energy
    to ``O(h^2)`` per step.
    """
    f = np.atleast_2d(np.asarray(f, dtype=DTYPE))
    nb = f.shape[0]
    nu = np.broadcast_to(np.atleast_1d(np.asarray(nu, dtype=DTYPE)), (nb,))
    dt = np.broadcast_to(np.atleast_1d(np.asarray(dt, dtype=DTYPE)), (nb,))
    _, u, vt2 = grid_moments(grid, f)
    feq = grid_maxwellian(grid, np.ones(nb), u, vt2)
    return CollisionOperator1D(grid, (dt * nu * vt2)[:, None], feq[:, None, :])


def landau_coupled_operator(
    grid: ParallelVelocityGrid,
    f: np.ndarray,
    species: tuple[Species, ...],
    *,
    nu0: float,
    dt: float,
) -> CollisionOperator1D:
    """Fully-implicit multi-species Landau-style coupling (Dougherty form).

    Parameters
    ----------
    f:
        Distributions ``(num_nodes, num_species, nv)``; all species share
        the grid (a mass-comparable mixture in common thermal units).
    species:
        The species of axis 1, in order.
    nu0:
        Base collision frequency; the pairwise frequency is
        ``nu_ij = nu0 * m_j n_j / (m_i n_i + m_j n_j)``, which satisfies
        the momentum-symmetry ``m_i n_i nu_ij = m_j n_j nu_ji``.
    dt:
        Backward-Euler time step.

    Each species ``i`` gets one part per partner ``j`` with the
    symmetrised mixed moments (Adams et al., arXiv:2209.03228):
    the common flow ``u_ij = (u_i + u_j) / 2`` and the mixed temperature

    .. math:: T_{ij} = \\frac{m_i m_j}{m_i + m_j}
        \\Big( \\frac{T_i}{m_i} + \\frac{T_j}{m_j}
        + \\tfrac12 (u_i - u_j)^2 \\Big),

    chosen so that total momentum and total energy (mass-weighted sums
    over species) are conserved in the continuum while each species'
    density is conserved individually.  The batch is flattened to
    ``(num_nodes * num_species, nv)`` in C order — a sum of tridiagonal
    parts is tridiagonal, so the systems ride the same solver paths as
    the single-species operators.
    """
    f = np.asarray(f, dtype=DTYPE)
    if f.ndim != 3:
        raise ValueError(
            f"f must have shape (num_nodes, num_species, nv), got {f.shape}"
        )
    num_nodes, ns, nv = f.shape
    if ns != len(species):
        raise ValueError(f"f has {ns} species, species tuple has {len(species)}")
    if nv != grid.nv:
        raise ValueError(f"f has {nv} cells, grid has {grid.nv}")
    masses = np.array([s.mass for s in species], dtype=DTYPE)

    n, u, vt2 = grid_moments(grid, f.reshape(num_nodes * ns, nv))
    n = n.reshape(num_nodes, ns)
    u = u.reshape(num_nodes, ns)
    vt2 = vt2.reshape(num_nodes, ns)
    temp = masses[None, :] * vt2  # (num_nodes, ns)

    # Pairwise symmetrised coefficients, shapes (num_nodes, ns, ns) with
    # axis 1 = species i (the system), axis 2 = partner j (the part).
    mn = masses[None, :] * n  # m_j n_j per node
    nu_ij = nu0 * mn[:, None, :] / (mn[:, :, None] + mn[:, None, :])
    u_ij = 0.5 * (u[:, :, None] + u[:, None, :])
    m_i, m_j = masses[:, None], masses[None, :]
    reduced = (m_i * m_j / (m_i + m_j))[None, :, :]
    t_ij = reduced * (
        vt2[:, :, None] + vt2[:, None, :]
        + 0.5 * (u[:, :, None] - u[:, None, :]) ** 2
    )
    vt2_ij = t_ij / m_i[None, :, :]  # diffusion of species i against j

    weights = (dt * nu_ij * vt2_ij).reshape(num_nodes * ns, ns)
    feq = grid_maxwellian(
        grid,
        np.ones(num_nodes * ns * ns),
        u_ij.reshape(-1),
        vt2_ij.reshape(-1),
    ).reshape(num_nodes * ns, ns, nv)
    op = CollisionOperator1D(grid, weights, feq)
    # Stash the layout for conservation checks and scenario reporting.
    op.species = tuple(species)
    op.num_nodes = num_nodes
    op.temperatures = temp
    return op
