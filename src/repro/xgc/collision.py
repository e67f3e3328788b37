"""Nonlinear collision-operator coefficients (the Picard linearisation).

The proxy operator is a nonlinear Fokker-Planck collision model of
Dougherty type with an added pitch-angle-scattering tensor, acting in the
2D ``(v_par, v_perp)`` velocity space:

.. math::

    C(f) = \\frac{1}{J} \\nabla \\cdot \\Big( J \\big[ D(f)\\,\\nabla f
           + \\nu (v - u(f))\\, f \\big] \\Big),
    \\qquad
    D(f) = \\nu v_t^2(f)\\, I + \\nu\\eta\\,(|v|^2 I - v v^T),

where the Jacobian is ``J = v_perp`` and the thermal speed ``v_t^2 = T/m``,
parallel flow ``u`` and collision frequency ``nu`` are *functionals of f*
through its fluid moments — this is the nonlinearity the Picard iteration
resolves.  The pitch-angle tensor (weight ``eta``) supplies the
cross-derivative couplings that make the discretisation a nine-point
stencil, as in the Rosenbluth-potential form of the full Landau operator
used by XGC.

The drifting Maxwellian with moments ``(n, u, T)`` annihilates the
drift-diffusion part exactly, and the centred Maxwellian annihilates the
pitch tensor; the operator relaxes any distribution toward its own
Maxwellian while conserving density exactly (finite-volume form) and
momentum/energy to discretisation accuracy.

:func:`linearized_coefficients` evaluates the frozen coefficients at a
Picard iterate; :class:`CollisionCoefficients` is the small per-batch
coefficient bundle the stencil assembler consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..utils.validation import check_non_negative, check_positive
from .grid import VelocityGrid
from .maxwellian import moments
from .species import Species

__all__ = [
    "CollisionCoefficients",
    "linearized_coefficients",
    "linearized_coefficients_masses",
]


@dataclass(frozen=True)
class CollisionCoefficients:
    """Frozen (Picard-linearised) coefficients for a batch of operators.

    All fields are per-batch arrays of shape ``(num_batch,)``:

    Attributes
    ----------
    nu:
        Collision frequency.
    vt2:
        Squared thermal speed ``T/m`` of the local Maxwellian.
    u_par:
        Parallel flow velocity of the local Maxwellian.
    eta:
        Pitch-angle scattering weight (relative to ``nu``).
    dt:
        Backward-Euler time step.
    """

    nu: np.ndarray
    vt2: np.ndarray
    u_par: np.ndarray
    eta: np.ndarray
    dt: np.ndarray

    def __post_init__(self) -> None:
        arrays = {
            "nu": self.nu,
            "vt2": self.vt2,
            "u_par": self.u_par,
            "eta": self.eta,
            "dt": self.dt,
        }
        nb = None
        for name, arr in arrays.items():
            a = np.asarray(arr, dtype=np.float64)
            if a.ndim != 1:
                raise ValueError(f"{name} must be 1-D, got {a.ndim}-D")
            if nb is None:
                nb = a.shape[0]
            elif a.shape[0] != nb:
                raise ValueError(
                    f"{name} has length {a.shape[0]}, expected {nb}"
                )
            object.__setattr__(self, name, a)
        for name in ("nu", "vt2", "dt"):
            if np.any(getattr(self, name) <= 0):
                raise ValueError(f"{name} must be strictly positive")
        if np.any(self.eta < 0):
            raise ValueError("eta must be non-negative")

    @property
    def num_batch(self) -> int:
        """Number of systems described by this coefficient bundle."""
        return self.nu.shape[0]

    @classmethod
    def uniform(
        cls,
        num_batch: int,
        *,
        nu: float,
        vt2: float = 1.0,
        u_par: float = 0.0,
        eta: float = 0.25,
        dt: float = 1.0,
    ) -> "CollisionCoefficients":
        """Identical coefficients for every batch entry (test helper)."""
        check_positive(num_batch, "num_batch")
        full = lambda v: np.full(num_batch, float(v))  # noqa: E731
        return cls(nu=full(nu), vt2=full(vt2), u_par=full(u_par),
                   eta=full(eta), dt=full(dt))


def linearized_coefficients(
    grid: VelocityGrid,
    species: Species,
    f: np.ndarray,
    *,
    dt: float | np.ndarray,
    nu_ref: float = 1.0,
    eta: float = 0.25,
    kurtosis_gamma: float = 2.0,
) -> CollisionCoefficients:
    """Evaluate the collision coefficients at a Picard iterate.

    Parameters
    ----------
    grid, species:
        Discretisation and particle species.
    f:
        Current Picard iterate, shape ``(num_batch, n)`` (or ``(n,)``).
    dt:
        Backward-Euler step (scalar or per-batch).
    nu_ref:
        Reference electron collision frequency at ``n = T = 1``; species
        and local-moment scaling is applied on top (``nu ~ n / (sqrt(m)
        T^{3/2})``).
    eta:
        Pitch-angle weight relative to ``nu``.

    Returns
    -------
    :class:`CollisionCoefficients` with one entry per batch system.
    """
    f2 = np.atleast_2d(np.asarray(f, dtype=np.float64))
    masses = np.full(f2.shape[0], species.mass)
    return linearized_coefficients_masses(
        grid, masses, f2, dt=dt, nu_ref=nu_ref, eta=eta,
        kurtosis_gamma=kurtosis_gamma,
    )


def linearized_coefficients_masses(
    grid: VelocityGrid,
    masses: np.ndarray,
    f: np.ndarray,
    *,
    dt: float | np.ndarray,
    nu_ref: float = 1.0,
    eta: float = 0.25,
    kurtosis_gamma: float = 2.0,
) -> CollisionCoefficients:
    """Per-batch-entry species variant of :func:`linearized_coefficients`.

    ``masses`` assigns each batch entry its species mass, which lets a
    single coefficient bundle describe a *mixed* ion/electron batch — the
    configuration every result in the paper uses (equal numbers of ion and
    electron matrices per batch).

    ``kurtosis_gamma`` controls the *shape sensitivity* of the collision
    frequency: ``nu`` is multiplied by ``(q / q_M)**gamma`` where ``q`` is
    the normalised fourth central moment and ``q_M = 5/3`` its Maxwellian
    value.  This models the speed dependence of the true Landau operator's
    coefficients (suprathermal tails collide differently), and — because
    the fourth moment is *not* conserved — it gives the Picard iteration
    the gradual contraction the paper's Table III exhibits.  Setting it to
    0 recovers a pure 3-moment Dougherty-type nonlinearity.
    """
    check_positive(nu_ref, "nu_ref")
    check_non_negative(eta, "eta")
    check_non_negative(kurtosis_gamma, "kurtosis_gamma")
    f2 = np.atleast_2d(np.asarray(f, dtype=np.float64))
    nb = f2.shape[0]
    masses = np.broadcast_to(np.asarray(masses, dtype=np.float64), (nb,))
    if np.any(masses <= 0):
        raise ValueError("masses must be strictly positive")
    mom = moments(grid, f2)

    # Velocities are species-normalised, so the mass appears only in the
    # collision frequency (nu ~ n / (sqrt(m) T^{3/2})); the thermal spread
    # on the grid is the normalised temperature itself.
    nu = nu_ref * mom.density / (np.sqrt(masses) * mom.temperature**1.5)
    if kurtosis_gamma > 0.0:
        w = grid.cell_volumes()
        vpar, vperp = grid.flat_coords()
        u = np.atleast_1d(mom.mean_v_par)
        c2_pw = (vpar[None, :] - u[:, None]) ** 2 + vperp[None, :] ** 2
        c2 = np.einsum("bi,bi->b", f2 * w, c2_pw) / mom.density
        c4 = np.einsum("bi,bi->b", f2 * w, c2_pw**2) / mom.density
        q_norm = (c4 / c2**2) / (5.0 / 3.0)
        nu = nu * q_norm**kurtosis_gamma
    vt2 = mom.temperature
    dt_arr = np.broadcast_to(np.asarray(dt, dtype=np.float64), (nb,)).copy()

    return CollisionCoefficients(
        nu=np.asarray(nu, dtype=np.float64).reshape(nb),
        vt2=np.asarray(vt2, dtype=np.float64).reshape(nb),
        u_par=np.asarray(mom.mean_v_par, dtype=np.float64).reshape(nb),
        eta=np.full(nb, float(eta)),
        dt=dt_arr,
    )
