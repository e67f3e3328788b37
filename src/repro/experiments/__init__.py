"""Programmatic reproduction of every paper artefact.

Each generator runs the real numerics (batched solves, Picard loops,
eigendecompositions) and the performance model, and returns an
:class:`~repro.experiments.common.ExperimentResult` with both structured
data and a rendered text block:

>>> from repro.experiments import fig6
>>> result = fig6()                       # doctest: +SKIP
>>> result.data["series"][3840]["A100-ell"]   # doctest: +SKIP

``run_all`` regenerates everything (also exposed as
``python -m repro reproduce``); the pytest-benchmark suite in
``benchmarks/`` wraps the same generators with timing and shape
assertions.
"""

from __future__ import annotations

from .common import ExperimentResult
from .figures import fig1, fig2, fig4, fig6, fig7, fig8, fig9
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
    "ALL_EXPERIMENTS",
    "run_all",
]

#: Registry of every artefact generator, in paper order.
ALL_EXPERIMENTS = {
    "fig1": fig1,
    "fig2": fig2,
    "fig4": fig4,
    "table1": table1,
    "fig6": fig6,
    "fig7": fig7,
    "table2": table2,
    "table3": table3,
    "fig8": fig8,
    "fig9": fig9,
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
