"""Shared machinery of the experiment generators.

Each generator in :mod:`repro.experiments` regenerates one artefact of
the paper (a figure's data series, a table's rows or a study) and returns
an :class:`ExperimentResult`: structured data for programmatic use plus a
rendered text block for humans.  The tier-1 claim tests assert on the
data; ``python -m repro reproduce`` writes the text of them all to disk.
The measured solves are cached here, so generators share them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ..core import (
    AbsoluteResidual,
    BatchBicgstab,
    BatchLogger,
    make_solver,
    to_format,
)
from ..utils import batch_eigenvalues, condition_number, summarize_spectrum
from ..xgc import CollisionProxyApp, PicardOptions, PicardStepper, ProxyAppConfig

__all__ = [
    "ExperimentResult",
    "BATCH_SIZES",
    "N_ROWS",
    "KL",
    "KU",
    "STORED_ELL",
    "paper_app",
    "measured_zero_guess",
    "measured_variant_iterations",
    "measured_picard",
    "species_spectra",
    "spd_stencil_batch",
    "tile_iterations",
]

#: Batch sizes swept by the figure generators (the paper's x-axes).
BATCH_SIZES = (120, 240, 480, 960, 1920, 3840)

#: Problem constants at paper scale.
N_ROWS = 992
KL = KU = 33
STORED_ELL = 9 * N_ROWS


@dataclass
class ExperimentResult:
    """One regenerated paper artefact.

    Attributes
    ----------
    name:
        Artefact identifier (``"fig6"``, ``"table3"``, ...).
    description:
        One-line description of what the artefact shows.
    data:
        Structured payload (dict of arrays/records; schema per artefact).
    text:
        Rendered, human-readable block (what lands in results files).
    """

    name: str
    description: str
    data: dict = field(default_factory=dict)
    text: str = ""

    def write(self, directory) -> str:
        """Write the rendered text to ``directory/<name>.txt``; returns path."""
        import pathlib

        out = pathlib.Path(directory)
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"{self.name}.txt"
        path.write_text(self.text + "\n")
        return str(path)


@lru_cache(maxsize=4)
def paper_app(num_mesh_nodes: int = 8) -> CollisionProxyApp:
    """The paper-scale proxy app in the paper's ELL format (cached — the
    stencil build is shared)."""
    return CollisionProxyApp(ProxyAppConfig(
        num_mesh_nodes=num_mesh_nodes, picard=PicardOptions(matrix_format="ell"),
    ))


@lru_cache(maxsize=4)
def measured_zero_guess(num_mesh_nodes: int = 8):
    """One real zero-guess batched solve; returns (app, SolveResult)."""
    app = paper_app(num_mesh_nodes)
    matrix, f = app.build_matrices()
    solver = BatchBicgstab(
        preconditioner="jacobi",
        criterion=AbsoluteResidual(1e-10),
        max_iter=500,
        logger=BatchLogger(),
    )
    return app, solver.solve(matrix, f)


@lru_cache(maxsize=2)
def species_spectra(num_mesh_nodes: int = 2):
    """Spectrum and condition number of node 0's electron and ion systems.

    Returns ``{species: (SpectrumSummary, condition_number)}``; the dense
    eigendecompositions are the costly part of Fig. 2, hence the cache.
    """
    matrix, _ = paper_app(num_mesh_nodes).build_matrices()
    csr = to_format(matrix, "csr")
    return {
        species: (
            summarize_spectrum(batch_eigenvalues(csr, idx)),
            condition_number(csr, idx),
        )
        for idx, species in ((0, "electron"), (1, "ion"))
    }


@lru_cache(maxsize=2)
def spd_stencil_batch(num_mesh_nodes: int = 2):
    """An SPD batch on the paper's n = 992 stencil pattern.

    The collision matrices are nonsymmetric, so the CG family needs a
    surrogate with the same sparsity structure and size: the symmetric
    part of the assembled batch, diagonally shifted into strict dominance
    (hence SPD).  Returns ``(matrix, rhs)`` as :class:`~repro.core.
    BatchCsr`.
    """
    from ..core import BatchCsr

    app = paper_app(num_mesh_nodes)
    matrix, f = app.build_matrices()
    dense = np.array(to_format(matrix, "dense").values, dtype=np.float64)
    sym = 0.5 * (dense + np.swapaxes(dense, 1, 2))
    i = np.arange(sym.shape[1])
    off = np.abs(sym).sum(axis=2) - np.abs(sym[:, i, i])
    sym[:, i, i] = off + 1.0
    return BatchCsr.from_dense(sym), f


@lru_cache(maxsize=4)
def measured_variant_iterations(num_mesh_nodes: int = 8):
    """Per-system iteration counts of each classic/pipelined variant.

    BiCGSTAB and its pipelined sibling run one real zero-guess solve of
    the collision batch; the CG pair (SPD-only theory) runs the
    :func:`spd_stencil_batch` surrogate.  Returns ``{solver_name:
    iterations}`` — the honest per-variant inputs for the crossover model
    (pipelined variants converge in slightly different counts, which the
    timing comparison must charge).
    """
    app = paper_app(num_mesh_nodes)
    matrix, f = app.build_matrices()
    spd, spd_f = spd_stencil_batch()
    problems = {
        "bicgstab": (matrix, f),
        "pipelined_bicgstab": (matrix, f),
        "cg": (spd, spd_f),
        "pipelined_cg": (spd, spd_f),
    }
    out = {}
    for name, (m, b) in problems.items():
        solver = make_solver(
            name, preconditioner="jacobi",
            criterion=AbsoluteResidual(1e-10), max_iter=500,
        )
        res = solver.solve(m, b)
        if not res.converged.all():
            raise RuntimeError(f"{name} failed to converge on the paper batch")
        out[name] = res.iterations
    return out


@lru_cache(maxsize=4)
def measured_picard(num_mesh_nodes: int = 8, warm_start: bool = True):
    """One real Picard step; returns (app, PicardStepResult)."""
    app = paper_app(num_mesh_nodes)
    if warm_start:
        stepper = app.stepper
    else:
        stepper = PicardStepper(
            app.config.grid,
            app.masses,
            nu_ref=app.config.nu_ref,
            eta=app.config.eta,
            kurtosis_gamma=app.config.kurtosis_gamma,
            options=PicardOptions(warm_start=False),
            stencil=app.stencil,
        )
    f0 = app.initial_state()
    return app, stepper.step(f0, app.config.dt)


def tile_iterations(iterations: np.ndarray, nb: int) -> np.ndarray:
    """Repeat a measured iteration-count vector out to batch size ``nb``."""
    return np.tile(iterations, nb // iterations.size + 1)[:nb]
