"""Command-line entry point: ``python -m repro <command>``.

Commands
--------
``info``
    Print the library inventory and the hardware catalog.
``demo``
    Run a small end-to-end demonstration: assemble the XGC batch, solve it
    with batched BiCGSTAB, and project the solve onto the paper's GPUs.
``picard``
    Run the proxy app's Picard loop and print the Table-III style report.
``tune``
    Show the automatic solver configuration for the XGC matrices on every
    modelled GPU.
``reproduce``
    Regenerate every paper artefact (figures and tables) and write them
    to a directory (default ``./results``).
``serve``
    Run the solver service against seeded synthetic traffic (Poisson or
    bursty arrivals) on the deterministic virtual clock and print the
    throughput/latency/QoS report.
"""

from __future__ import annotations

import argparse
import sys



def _cmd_info(_args) -> int:
    import repro
    from repro.gpu import GPUS, SKYLAKE_NODE

    print(f"repro {repro.__version__} — batched sparse iterative solvers "
          "for the XGC collision operator (IPDPS 2022 reproduction)")
    print("\nsubpackages:")
    for name, mod in (
        ("core", repro.core), ("xgc", repro.xgc), ("gpu", repro.gpu),
        ("dist", repro.dist), ("utils", repro.utils),
    ):
        doc = (mod.__doc__ or "").strip().splitlines()[0]
        print(f"  repro.{name:<6} {doc}")
    print("\nmodelled hardware:")
    for hw in GPUS:
        print(f"  {hw.name:<7} {hw.peak_fp64_tflops} TF FP64, "
              f"{hw.mem_bw_gbs:.0f} GB/s, {hw.num_cus} CUs, "
              f"warp {hw.warp_size}, {hw.scheduling} dispatch")
    cpu = SKYLAKE_NODE
    print(f"  {cpu.name:<7} {cpu.num_sockets}x{cpu.cores_per_socket} cores, "
          f"{cpu.cores_used} used for dgbsv")
    return 0


def _cmd_demo(args) -> int:
    import numpy as np

    from repro.core import AbsoluteResidual, BatchBicgstab
    from repro.gpu import GPUS, SKYLAKE_NODE, estimate_cpu_dgbsv, \
        estimate_iterative_solve
    from repro.xgc import CollisionProxyApp, PicardOptions, ProxyAppConfig

    app = CollisionProxyApp(ProxyAppConfig(
        num_mesh_nodes=args.nodes,
        picard=PicardOptions(matrix_format=args.format),
    ))
    matrix, rhs = app.build_matrices()
    print(f"assembled {matrix.num_batch} collision systems "
          f"({matrix.num_rows} rows, 9-point stencil, "
          f"{args.format.upper()} format)")

    solver = BatchBicgstab(preconditioner="jacobi",
                           criterion=AbsoluteResidual(1e-10), max_iter=500)
    res = solver.solve(matrix, rhs)
    print(f"batched BiCGSTAB: converged={res.all_converged}, "
          f"iterations={res.iterations.tolist()}")

    nb = args.batch
    its = np.tile(res.iterations, nb // res.iterations.size + 1)[:nb]
    stored = getattr(matrix, "stored_per_system", None)
    print(f"\nmodelled solve times at batch size {nb} "
          f"({args.format.upper()} format):")
    for hw in GPUS:
        est = estimate_iterative_solve(
            hw, args.format, matrix.num_rows, app.stencil.nnz, its,
            stored_nnz=stored,
        )
        print(f"  {hw.name:<7} {est.total_time_s * 1e3:9.3f} ms")
    cpu = estimate_cpu_dgbsv(SKYLAKE_NODE, matrix.num_rows, 33, 33, nb)
    print(f"  {'Skylake':<7} {cpu.total_time_s * 1e3:9.3f} ms (dgbsv)")
    return 0


def _cmd_picard(args) -> int:
    from repro.xgc import CollisionProxyApp, PicardOptions, ProxyAppConfig

    app = CollisionProxyApp(ProxyAppConfig(
        num_mesh_nodes=args.nodes,
        picard=PicardOptions(matrix_format=args.format, solver=args.solver),
    ))
    result = app.run(args.steps)
    by = result.linear_iterations_by_species(app.config)
    print("linear iterations per Picard iteration (batch mean):")
    for name, table in by.items():
        for step, row in enumerate(table):
            print(f"  {name:<9} step {step}: "
                  + " ".join(f"{v:5.1f}" for v in row))
    worst = result.step_results[-1].conservation.worst()
    print("conservation drifts: "
          + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))
    return 0


def _cmd_tune(_args) -> int:
    from repro.gpu import GPUS, tune_for_matrix

    from repro.xgc import CollisionProxyApp, ProxyAppConfig

    app = CollisionProxyApp(ProxyAppConfig(num_mesh_nodes=1))
    matrix, _ = app.build_matrices()

    for hw in GPUS:
        d = tune_for_matrix(hw, matrix)
        print(f"{hw.name}: format={d.fmt}, threads={d.threads_per_block}, "
              f"shared {d.storage.num_shared}/{d.storage.num_vectors} "
              f"vectors, {'fused' if d.fused_kernel else 'component'} kernel")
        for key, why in d.rationale.items():
            print(f"    {key}: {why}")
    return 0


def _cmd_serve(args) -> int:
    from repro.service import (
        CoalescePolicy,
        QosPolicy,
        TenantSpec,
        TrafficPattern,
        WorkloadSpec,
        serve_traffic,
    )

    pattern = TrafficPattern(
        kind=args.traffic,
        rate_hz=args.rate,
        burst_rate_hz=4 * args.rate,
        duration_s=args.duration,
        seed=args.seed,
    )
    spec = WorkloadSpec(
        num_rows=args.num_rows,
        systems_choices=(1, 2),
        tenants=(("interactive", 3.0), ("batch", 1.0)),
    )
    qos = QosPolicy(
        capacity=args.capacity,
        tenants=(
            TenantSpec("interactive", weight=3.0, deadline_s=args.deadline),
            TenantSpec("batch", weight=1.0, deadline_s=5 * args.deadline),
        ),
    )
    coalesce = CoalescePolicy(
        max_batch=args.max_batch, max_wait_s=args.max_wait, naive=args.naive,
    )
    run = serve_traffic(pattern, spec, qos=qos, coalesce=coalesce,
                        num_ranks=args.ranks)
    r = run.report
    mode = "naive per-request" if args.naive else \
        f"coalesced (max_batch={args.max_batch}, max_wait={args.max_wait * 1e3:g} ms)"
    lats = sorted(r.latencies)
    p = (lambda q: lats[min(len(lats) - 1, int(q * len(lats)))] * 1e3) \
        if lats else (lambda q: 0.0)
    print(f"{args.traffic} traffic, {args.rate:g}/s for "
          f"{args.duration * 1e3:g} ms (seed {args.seed}), {mode}:")
    print(f"  submitted {r.submitted}, completed {r.completed} "
          f"({r.completed_systems} systems), degraded {r.degraded}, "
          f"shed {r.shed}, failed {r.failed}")
    print(f"  batches {r.batches} (mean size {r.mean_batch_size:.1f}), "
          f"compactions {r.compaction_events}, flushes {dict(r.flush_reasons)}")
    print(f"  throughput {r.throughput:,.0f} systems/s over "
          f"{r.makespan_s * 1e3:.2f} ms makespan "
          f"(device busy {r.device_busy_s * 1e3:.2f} ms)")
    print(f"  latency p50/p95/p99: {p(0.50):.2f} / {p(0.95):.2f} / "
          f"{p(0.99):.2f} ms; deadline misses {r.deadline_misses} "
          f"({r.deadline_miss_rate:.2%})")
    for tenant in sorted(r.tenant_completed):
        print(f"  tenant {tenant}: {r.tenant_completed[tenant]} done, "
              f"{r.tenant_shed.get(tenant, 0)} shed, health "
              f"{dict(r.tenant_health.get(tenant, {}))}")
    return 0


def _cmd_reproduce(args) -> int:
    from repro.experiments import run_all

    results = run_all(args.out, verbose=not args.quiet)
    print(f"\nwrote {len(results)} artefacts to {args.out}/")
    return 0


def main(argv=None) -> int:
    """Parse arguments and dispatch to a command."""
    from repro.xgc import PICARD_SOLVERS, PicardOptions

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="library and hardware inventory")
    demo = sub.add_parser("demo", help="end-to-end solve + hardware projection")
    demo.add_argument("--nodes", type=int, default=4, help="mesh nodes")
    demo.add_argument("--batch", type=int, default=1920,
                      help="projected batch size")
    demo.add_argument("--format", choices=("csr", "ell", "dia"),
                      default="ell",
                      help="batch matrix format (default: the paper's ell)")
    picard = sub.add_parser("picard", help="Picard loop report (Table III)")
    picard.add_argument("--nodes", type=int, default=4)
    picard.add_argument("--steps", type=int, default=1)
    picard.add_argument("--format", choices=("csr", "ell", "dia"),
                        default=PicardOptions.matrix_format,
                        help="batch matrix format (default: %(default)s)")
    picard.add_argument(
        "--solver",
        choices=PICARD_SOLVERS,
        default=PicardOptions.solver,
        help="inner batched solver (pipelined_bicgstab trades the "
             "||s|| early exit for 2 reduction rounds/iteration)",
    )
    sub.add_parser("tune", help="automatic solver configuration report")
    rep = sub.add_parser("reproduce", help="regenerate all paper artefacts")
    rep.add_argument("--out", default="results", help="output directory")
    rep.add_argument("--quiet", action="store_true",
                     help="suppress per-artefact output")
    serve = sub.add_parser(
        "serve", help="solver service under seeded synthetic traffic"
    )
    serve.add_argument("--traffic", choices=("poisson", "bursty"),
                       default="poisson", help="arrival process")
    serve.add_argument("--rate", type=float, default=50_000.0,
                       help="mean arrival rate (requests/s)")
    serve.add_argument("--duration", type=float, default=10e-3,
                       help="arrival window in virtual seconds")
    serve.add_argument("--seed", type=int, default=2022,
                       help="traffic seed (same seed -> identical run)")
    serve.add_argument("--num-rows", type=int, default=128,
                       help="system size of the synthetic workload")
    serve.add_argument("--max-batch", type=int, default=64,
                       help="coalescer flush size (systems)")
    serve.add_argument("--max-wait", type=float, default=2e-3,
                       help="coalescer max wait in virtual seconds")
    serve.add_argument("--deadline", type=float, default=10e-3,
                       help="interactive-tenant deadline (virtual seconds)")
    serve.add_argument("--capacity", type=int, default=4096,
                       help="QoS backlog bound (requests)")
    serve.add_argument("--ranks", type=int, default=1,
                       help="simulated GPUs to shard batches across")
    serve.add_argument("--naive", action="store_true",
                       help="dispatch every request alone (baseline mode)")

    args = parser.parse_args(argv)
    return {
        "info": _cmd_info,
        "demo": _cmd_demo,
        "picard": _cmd_picard,
        "tune": _cmd_tune,
        "reproduce": _cmd_reproduce,
        "serve": _cmd_serve,
    }[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
