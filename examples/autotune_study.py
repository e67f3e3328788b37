"""Tour of the autotuning gym: enumerate the space, distill, deploy.

Walks the full loop of `repro.tune` on the paper's collision scenario:
enumerate the configuration space and find its true optimum against the
hand-rule baseline, distill a best_configs.json policy over the Table-I
GPUs, and feed it back into `tune_for_matrix` so the production entry
point applies the distilled configuration instead of the hand rules.

Run:  python examples/autotune_study.py
"""

from repro.gpu import GPUS, V100, tune_for_matrix
from repro.tune import (
    CostModelEnv,
    baseline_config,
    distill_policy,
    exhaustive_best,
    space_for_scenario,
    xgc_scenario,
)
from repro.xgc import CollisionProxyApp, ProxyAppConfig


def main():
    scenario = xgc_scenario()
    space = space_for_scenario(scenario)
    print(f"scenario {scenario.name!r}: n={scenario.num_rows}, "
          f"{space.size()} valid configurations\n")

    # -- 1. the hand rules vs the enumerated optimum -------------------
    num_batch = 960
    env = CostModelEnv(V100, scenario, num_batch)
    base = baseline_config(V100, scenario, num_batch)
    base_cost = env.evaluate(base)
    optimum, optimum_cost = exhaustive_best(env)
    print(f"hand rules ({V100.name}, batch {num_batch}): "
          f"{base.solver}/{base.fmt}/{base.precision} "
          f"-> {base_cost * 1e3:.3f} ms")
    print(f"exhaustive optimum: {optimum.solver}/{optimum.fmt}/"
          f"{optimum.precision} @ {optimum.target_blocks_per_cu} "
          f"block(s)/CU -> {optimum_cost * 1e3:.3f} ms "
          f"({base_cost / optimum_cost:.2f}x, "
          f"{env.evaluations} cost-model evaluations)")

    # -- 2. distill a deployable policy over the hardware grid ---------
    batches = (16, 960, 16384)
    policy = distill_policy(GPUS, scenario, batches)
    print(f"\ndistilled {len(policy)} cells "
          f"({len(GPUS)} GPUs x batches {batches}):")
    for key in sorted(policy.entries):
        e = policy.entries[key]
        c = e.config
        print(f"  {key:<24} {c.solver}/{c.fmt}/{c.precision}"
              f"@{c.target_blocks_per_cu}bpc   "
              f"{e.baseline_cost / e.cost:5.2f}x vs hand rules")

    # -- 3. deploy: tune_for_matrix consults the policy ----------------
    app = CollisionProxyApp(ProxyAppConfig(num_mesh_nodes=8))
    matrix, _ = app.build_matrices()
    plain = tune_for_matrix(V100, matrix)
    distilled = tune_for_matrix(V100, matrix, policy=policy)
    print(f"\ntune_for_matrix on the real batch "
          f"(batch {matrix.num_batch}):")
    print(f"  hand rules: {plain.fmt}, {plain.solver_variant}, "
          f"{plain.storage.num_shared}/{plain.storage.num_vectors} "
          "shared vectors")
    print(f"  policy    : {distilled.fmt}, {distilled.solver_variant}, "
          f"{distilled.storage.num_shared}/{distilled.storage.num_vectors} "
          "shared vectors")
    print(f"  rationale : {distilled.rationale['policy']}")


if __name__ == "__main__":
    main()
