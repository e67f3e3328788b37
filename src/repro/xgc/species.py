"""Plasma species definitions.

The proxy app simulates a deuterium plasma with one ion species and
electrons (the production XGC targets ~10 ion species plus electrons; the
proxy, and therefore this reproduction, uses two — see Section II-A).

Units are normalised: masses in electron masses, temperatures in a reference
``T0``, and collision frequencies relative to a reference electron collision
frequency.  The physically load-bearing fact is the **mass-ratio scaling of
the self-collision frequency**, ``nu ~ 1/sqrt(m)`` at fixed temperature:
electrons collide ~60x faster than deuterons, which is what makes the
electron backward-Euler matrices markedly stiffer than the ion ones
(Fig. 2's wider electron spectrum, Table III's 30-vs-5 iteration counts).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..utils.validation import check_positive

__all__ = ["Species", "ELECTRON", "DEUTERON", "SPECIES_BY_NAME"]


@dataclass(frozen=True)
class Species:
    """One plasma particle species.

    Attributes
    ----------
    name:
        Identifier (``"electron"``, ``"deuteron"``).
    mass:
        Particle mass in electron masses.
    charge:
        Charge number (electrons -1, deuterons +1).
    """

    name: str
    mass: float
    charge: float

    def __post_init__(self) -> None:
        check_positive(self.mass, "mass")
        if not self.name:
            raise ValueError("species name must be non-empty")


#: Electron species (mass 1 by normalisation).
ELECTRON = Species(name="electron", mass=1.0, charge=-1.0)

#: Deuterium ion species (m_D / m_e = 3671).
DEUTERON = Species(name="deuteron", mass=3671.0, charge=1.0)

#: Lookup table used by the batch generators.
SPECIES_BY_NAME = {s.name: s for s in (ELECTRON, DEUTERON)}
