"""Programmatic reproduction of every paper artefact.

Each generator runs the real numerics (batched solves, Picard loops,
eigendecompositions) and the performance model, and returns an
:class:`~repro.experiments.common.ExperimentResult` with both structured
data and a rendered text block:

>>> from repro.experiments import fig6
>>> result = fig6()                       # doctest: +SKIP
>>> result.data["series"][3840]["A100-ell"]   # doctest: +SKIP

Besides the figures and tables, :mod:`repro.experiments.studies`
regenerates the studies the paper's text relies on (the dense and
block-diagonal alternatives, batched tridiagonal solvers, the
shared-memory and tuning ablations, and the tolerance study).
``run_all`` regenerates everything (also exposed as ``python -m repro
reproduce``); ``tests/integration/test_reproduction_claims.py`` checks
the paper's claims on the generators' data.
"""

from __future__ import annotations

from .common import ExperimentResult
from .figures import fig1, fig2, fig4, fig6, fig7, fig8, fig9
from .studies import (
    ablation_blockdiag,
    ablation_shmem,
    ablation_tuning,
    motivation_dense,
    related_tridiag,
    tolerance_study,
)
from .tables import table1, table2, table3

__all__ = [
    "ExperimentResult",
    "fig1",
    "fig2",
    "fig4",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "table1",
    "table2",
    "table3",
    "motivation_dense",
    "ablation_blockdiag",
    "related_tridiag",
    "ablation_shmem",
    "ablation_tuning",
    "tolerance_study",
    "ALL_EXPERIMENTS",
    "run_all",
]

#: Registry of every artefact generator, in paper order.
ALL_EXPERIMENTS = {
    "fig1": fig1,
    "fig2": fig2,
    "motivation_dense": motivation_dense,
    "ablation_blockdiag": ablation_blockdiag,
    "related_tridiag": related_tridiag,
    "fig4": fig4,
    "ablation_shmem": ablation_shmem,
    "ablation_tuning": ablation_tuning,
    "table1": table1,
    "fig6": fig6,
    "fig7": fig7,
    "table2": table2,
    "table3": table3,
    "fig8": fig8,
    "fig9": fig9,
    "tolerance_study": tolerance_study,
}


def run_all(output_dir: str | None = None, *, verbose: bool = False):
    """Regenerate every artefact; optionally write them to ``output_dir``.

    Returns ``{name: ExperimentResult}`` in paper order.
    """
    results = {}
    for name, generator in ALL_EXPERIMENTS.items():
        result = generator()
        results[name] = result
        if output_dir is not None:
            result.write(output_dir)
        if verbose:
            print(result.text)
            print()
    return results
