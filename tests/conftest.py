"""Shared fixtures: random batches, XGC objects, solver configurations.

Expensive objects (the 992-row collision stencil, proxy-app solves) are
module- or session-scoped so the suite stays fast.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import BatchCsr, BatchDense, BatchEll, to_format
from repro.xgc import (
    CollisionProxyApp,
    CollisionStencil,
    ProxyAppConfig,
    VelocityGrid,
)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG, fresh per test."""
    return np.random.default_rng(20220157)


def make_random_batch(
    rng: np.random.Generator,
    num_batch: int = 6,
    n: int = 40,
    *,
    density: float = 0.15,
    spd: bool = False,
    dominance: float = 1.0,
) -> np.ndarray:
    """Dense array of well-conditioned random sparse systems.

    Diagonally dominant (hence nonsingular) at the default ``dominance``;
    optionally symmetrised to SPD for the CG tests.  The sparsity pattern
    is shared across the batch (values differ), matching the
    batched-format contract.  A ``dominance`` below 1 scales the
    off-diagonal row sums in the diagonal down, so Krylov solvers need
    more steps (GMRES more than one restart cycle at 0.4 and n = 40).
    """
    pattern = rng.random((1, n, n)) < density
    vals = rng.standard_normal((num_batch, n, n)) * pattern
    if spd:
        vals = vals + np.swapaxes(vals, 1, 2)
    row_sums = np.abs(vals).sum(axis=2, keepdims=True)
    eye = np.eye(n)[None, :, :]
    vals = vals * (1 - eye) + eye * (dominance * row_sums + 1.0)
    return vals


@pytest.fixture
def dense_batch(rng) -> np.ndarray:
    """Well-conditioned nonsymmetric batch as a dense value array."""
    return make_random_batch(rng)


@pytest.fixture
def spd_batch(rng) -> np.ndarray:
    """Well-conditioned SPD batch as a dense value array."""
    return make_random_batch(rng, spd=True)


@pytest.fixture
def csr_batch(dense_batch) -> BatchCsr:
    return BatchCsr.from_dense(dense_batch)


@pytest.fixture
def ell_batch(csr_batch) -> BatchEll:
    return to_format(csr_batch, "ell")


@pytest.fixture
def dense_fmt_batch(dense_batch) -> BatchDense:
    return BatchDense(dense_batch)


# -- XGC fixtures (expensive; shared across the session) --------------------

@pytest.fixture(scope="session")
def small_grid() -> VelocityGrid:
    """A fast 12x11 grid (n = 132) for physics tests."""
    return VelocityGrid(nv_par=12, nv_perp=11, v_par_max=5.0, v_perp_max=5.0)


@pytest.fixture(scope="session")
def small_stencil(small_grid) -> CollisionStencil:
    return CollisionStencil(small_grid)


@pytest.fixture(scope="session")
def paper_grid() -> VelocityGrid:
    """The paper's 32x31 grid (n = 992)."""
    return VelocityGrid()


@pytest.fixture(scope="session")
def paper_stencil(paper_grid) -> CollisionStencil:
    return CollisionStencil(paper_grid)


@pytest.fixture(scope="session")
def small_app() -> CollisionProxyApp:
    """Proxy app on the small grid with 2 mesh nodes (4 systems)."""
    return CollisionProxyApp(
        ProxyAppConfig(
            num_mesh_nodes=2,
            grid=VelocityGrid(nv_par=12, nv_perp=11),
        )
    )


@pytest.fixture(scope="session")
def paper_app() -> CollisionProxyApp:
    """Proxy app at the paper's size: 992 rows, 2 nodes x 2 species."""
    return CollisionProxyApp(ProxyAppConfig(num_mesh_nodes=2))


@pytest.fixture(scope="session")
def paper_step_result(paper_app):
    """One warm-started Picard step at paper size (shared: ~2 s)."""
    f0 = paper_app.initial_state()
    return f0, paper_app.stepper.step(f0, paper_app.config.dt)
