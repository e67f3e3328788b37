"""repro — batched sparse iterative solvers for the XGC collision operator.

A from-scratch Python reproduction of *"Batched sparse iterative solvers on
GPU for the collision operator for fusion plasma simulations"* (Kashi,
Nayak, Kulkarni, Scheinberg, Lin, Anzt — IPDPS 2022).

Subpackages
-----------
:mod:`repro.core`
    The paper's contribution: batch matrix formats (CSR / ELL / dense with
    a shared sparsity pattern), batched SpMV kernels, batched Krylov
    solvers with per-system convergence monitoring, preconditioners,
    stopping criteria, the shared-memory placement planner, and the direct
    baselines (banded LU = ``dgbsv``, batched Thomas for tridiagonal
    systems).
:mod:`repro.xgc`
    The application substrate: a nonlinear Fokker-Planck collision
    operator on a 2D velocity grid, 9-point finite-volume assembly,
    backward Euler + Picard time stepping, and the proxy-app driver.
:mod:`repro.gpu`
    The hardware substrate: an execution-model simulator for the paper's
    V100 / A100 / MI100 GPUs and Skylake CPU node (Table I), producing the
    timing, scheduling and profiler-metric results of Section V.
:mod:`repro.dist`
    Simulated multi-rank batch decomposition (MPI-style, in process).
:mod:`repro.utils`
    Banded storage, eigenvalue diagnostics, fault injection, input
    validation.
:mod:`repro.experiments`
    Programmatic generators for every paper artefact (figures/tables).

Quickstart
----------
>>> import numpy as np
>>> from repro.core import BatchEll, BatchBicgstab, AbsoluteResidual
>>> from repro.xgc import CollisionProxyApp, ProxyAppConfig
>>> app = CollisionProxyApp(ProxyAppConfig(num_mesh_nodes=4))
>>> matrix, rhs = app.build_matrices()
>>> solver = BatchBicgstab(preconditioner="jacobi",
...                        criterion=AbsoluteResidual(1e-10))
>>> result = solver.solve(matrix, rhs)
>>> bool(result.all_converged)
True
"""

from . import core, dist, experiments, gpu, utils, xgc

__version__ = "1.0.0"

__all__ = ["core", "xgc", "gpu", "dist", "utils", "experiments",
           "__version__"]
