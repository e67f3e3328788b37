"""Composing solver components: the Ginkgo-style flexibility demo.

The batched solvers take pluggable preconditioners and stopping criteria,
and record each system's residual history on request — the composability
Section IV calls out as a design goal.  This example mixes and matches
them on one problem and shows the monolithic block-diagonal alternative
losing to the batched formulation.

Run:  python examples/custom_solver_components.py
"""

import numpy as np

from repro.core import (
    AbsoluteResidual,
    CombinedCriterion,
    MonolithicBlockSolver,
    RelativeResidual,
    make_preconditioner,
    make_solver,
)
from repro.xgc import CollisionProxyApp, ProxyAppConfig


def main():
    app = CollisionProxyApp(ProxyAppConfig(num_mesh_nodes=2))
    matrix, f = app.build_matrices()

    print("solver x preconditioner sweep on the XGC batch "
          f"({matrix.num_batch} systems):\n")
    print(f"{'solver':>10} {'preconditioner':>15} {'max iters':>10} "
          f"{'total iters':>12} {'converged':>10}")
    for solver_name in ("bicgstab", "gmres", "richardson"):
        for precond in ("identity", "jacobi"):
            solver = make_solver(
                solver_name,
                preconditioner=make_preconditioner(precond),
                criterion=AbsoluteResidual(1e-10),
                max_iter=2000,
            )
            res = solver.solve(matrix, f)
            print(
                f"{solver_name:>10} {precond:>15} {res.max_iterations:>10} "
                f"{res.total_iterations:>12} {str(res.all_converged):>10}"
            )

    # Combined stopping criterion: absolute OR relative, whichever first.
    print("\ncombined stopping criterion (abs 1e-10 OR rel 1e-6):")
    solver = make_solver(
        "bicgstab",
        preconditioner="jacobi",
        criterion=CombinedCriterion(
            AbsoluteResidual(1e-10), RelativeResidual(1e-6)
        ),
        max_iter=500,
        record_history=True,
    )
    res = solver.solve(matrix, f)
    print(f"  iterations: {res.iterations.tolist()}")
    curve = [snapshot[0] for snapshot in res.residual_history]
    print(
        "  system-0 residual history (every 5th): "
        + ", ".join(f"{v:.1e}" for v in curve[::5])
    )

    # The Section II ablation: one coupled block-diagonal system.
    print("\nmonolithic block-diagonal alternative:")
    mono = MonolithicBlockSolver(tol=1e-10).solve(matrix, f)
    batched = make_solver(
        "bicgstab", preconditioner="jacobi",
        criterion=AbsoluteResidual(1e-10), max_iter=500,
    ).solve(matrix, f)
    print(f"  batched total iteration work:    {batched.total_iterations}")
    print(f"  monolithic total iteration work: {mono.total_iterations} "
          f"({mono.total_iterations / batched.total_iterations:.2f}x, "
          "every block pays for the worst one)")


if __name__ == "__main__":
    main()
