"""Distributed proxy app: MPI-style batch decomposition over ranks.

The collision problem is embarrassingly parallel over mesh nodes; this
example decomposes a batch across simulated ranks, runs each rank's Picard
step, verifies the decomposition changes nothing numerically, and reports
the modelled parallel timing.

Run:  python examples/distributed_proxy.py
"""

import numpy as np

from repro.dist import imbalance, partition_batch, run_distributed
from repro.xgc import (
    CollisionProxyApp,
    PicardStepper,
    ProxyAppConfig,
)


def main():
    app = CollisionProxyApp(ProxyAppConfig(num_mesh_nodes=8))
    f0 = app.initial_state()
    cfg = app.config
    print(f"batch: {cfg.num_batch} systems "
          f"({cfg.num_mesh_nodes} nodes x {len(cfg.species)} species)")

    def stepper_factory(idx):
        return PicardStepper(
            cfg.grid,
            app.masses[idx],
            nu_ref=cfg.nu_ref,
            eta=cfg.eta,
            kurtosis_gamma=cfg.kurtosis_gamma,
            options=cfg.picard,
            stencil=app.stencil,
        )

    single = run_distributed(stepper_factory, f0, cfg.dt, 1)

    print(f"\n{'ranks':>6} {'scheme':>7} {'makespan ms':>12} "
          f"{'efficiency':>11} {'imbalance':>10} {'identical':>10}")
    for num_ranks in (1, 2, 4):
        for scheme in ("block", "cyclic"):
            run = run_distributed(
                stepper_factory, f0, cfg.dt, num_ranks, scheme=scheme
            )
            # Work-weighted imbalance from the measured iteration counts
            # (per-rank arrays reassembled into batch order).
            part = run.partition
            work = part.gather(
                [r.linear_iterations.sum(axis=0) for r in run.rank_results]
            )
            same = np.allclose(run.gather_f(), single.gather_f(),
                               rtol=1e-12, atol=1e-14)
            print(
                f"{num_ranks:>6} {scheme:>7} {run.makespan_s * 1e3:12.3f} "
                f"{run.parallel_efficiency:11.2f} "
                f"{imbalance(part, work):10.2f} "
                f"{str(same):>10}"
            )

    print("\nThe numerics are identical under any decomposition — the "
          "systems are\nindependent; only the modelled wall-clock changes.")


if __name__ == "__main__":
    main()
