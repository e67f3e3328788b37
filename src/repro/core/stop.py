"""Per-system stopping criteria for the batched iterative solvers.

The paper integrates "a simple but customizable stopping criterion for the
residual norm", with two concrete policies:

* an **absolute** residual threshold (``||r_k|| < tau``) — used for every
  XGC result (``tau = 1e-10``), and
* a **relative** residual-reduction factor (``||r_k|| < tau * ||r_0||``).

A criterion is *vectorised over the batch*: ``check`` takes the current
per-system residual norms and returns a boolean mask of systems that have
converged, enabling system-individual termination.
"""

from __future__ import annotations

import numpy as np

from ..utils.validation import check_non_negative

__all__ = [
    "StoppingCriterion",
    "AbsoluteResidual",
    "RelativeResidual",
    "CombinedCriterion",
]


class StoppingCriterion:
    """Abstract per-system residual-based stopping criterion."""

    name = "abstract"

    def initialize(self, rhs_norms: np.ndarray, initial_res_norms: np.ndarray) -> None:
        """Record per-system reference norms before iteration starts.

        Parameters
        ----------
        rhs_norms:
            ``||b[k]||`` per system.
        initial_res_norms:
            ``||b[k] - A[k] x0[k]||`` per system.
        """

    def check(self, res_norms: np.ndarray) -> np.ndarray:
        """Return a per-system boolean mask of converged systems."""
        raise NotImplementedError

    def restrict(self, indices: np.ndarray) -> "StoppingCriterion | None":
        """A criterion view for the sub-batch selected by ``indices``.

        Used by active-batch compaction: the restricted criterion must make
        bit-identical decisions for the selected systems.  Returns ``None``
        when a subclass cannot be restricted (compaction is then skipped).
        """
        return None


class AbsoluteResidual(StoppingCriterion):
    """Converged when ``||r_k|| < tol`` (paper default, tol = 1e-10)."""

    name = "absolute"

    def __init__(self, tol: float = 1e-10) -> None:
        check_non_negative(tol, "tol")
        self.tol = float(tol)

    def check(self, res_norms: np.ndarray) -> np.ndarray:
        return res_norms < self.tol

    def restrict(self, indices: np.ndarray) -> "AbsoluteResidual":
        return AbsoluteResidual(self.tol)


class RelativeResidual(StoppingCriterion):
    """Converged when ``||r_k|| < factor * ||r_0||`` per system.

    Systems whose initial residual is already zero are treated as converged
    immediately (threshold 0).
    """

    name = "relative"

    def __init__(self, factor: float = 1e-8) -> None:
        check_non_negative(factor, "factor")
        self.factor = float(factor)
        self._thresholds: np.ndarray | None = None

    def initialize(self, rhs_norms: np.ndarray, initial_res_norms: np.ndarray) -> None:
        self._thresholds = self.factor * initial_res_norms

    def check(self, res_norms: np.ndarray) -> np.ndarray:
        if self._thresholds is None:
            raise RuntimeError("criterion used before initialize()")
        return res_norms <= self._thresholds

    def restrict(self, indices: np.ndarray) -> "RelativeResidual | None":
        if self._thresholds is None:
            return None
        sub = RelativeResidual(self.factor)
        sub._thresholds = self._thresholds[np.asarray(indices)]
        return sub


class CombinedCriterion(StoppingCriterion):
    """OR-combination of several criteria (any one satisfied => converged)."""

    name = "combined"

    def __init__(self, *criteria: StoppingCriterion) -> None:
        if not criteria:
            raise ValueError("CombinedCriterion needs at least one criterion")
        self.criteria = tuple(criteria)

    def initialize(self, rhs_norms: np.ndarray, initial_res_norms: np.ndarray) -> None:
        for c in self.criteria:
            c.initialize(rhs_norms, initial_res_norms)

    def check(self, res_norms: np.ndarray) -> np.ndarray:
        mask = self.criteria[0].check(res_norms)
        for c in self.criteria[1:]:
            mask = mask | c.check(res_norms)
        return mask

    def restrict(self, indices: np.ndarray) -> "CombinedCriterion | None":
        parts = [c.restrict(indices) for c in self.criteria]
        if any(p is None for p in parts):
            return None
        return CombinedCriterion(*parts)
