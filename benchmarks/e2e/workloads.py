"""The workloads of the end-to-end benchmark: inputs, calls, checks, accounting.

Each workload object is built from a seed, exposes ``call()`` (the one
public entry point that is timed), and judges a call's result:

* ``outputs(result)`` -- the bytes that must repeat exactly across repeats;
* ``check(result)`` -- correctness problems (an empty list means correct);
* ``accounting(result)`` -- ``(work, attempted, failed)``;
* ``model(result)`` -- the modelled-GPU/virtual-clock metrics;
* ``extra(result)`` -- workload-specific numbers kept in the results file.

``repro`` is imported inside the constructors so that a fresh process's
set-up time includes importing the package the workload uses.
"""

from __future__ import annotations

import json

import numpy as np

#: Density drift allowed across one step (the paper's acceptance threshold).
DENSITY_TOL = 1e-7
#: Slack on a request's tolerance for the benchmark's own residual, which
#: rounds differently from the solver's.
RESIDUAL_SLACK = 1.0 + 1e-6


def _bits(*arrays) -> list[bytes]:
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


def _tail_percentile(n: int) -> float:
    """Highest percentile (at most p99) with at least ten samples beyond it."""
    return max(0.0, min(99.0, 100.0 * (1.0 - 10.0 / n))) if n else 0.0


class PicardWorkload:
    """``CollisionProxyApp.run`` from a seeded initial state (closed loop, one driver)."""

    family = "picard"

    def __init__(self, *, nodes: int, steps: int, warm_start: bool, seed: int) -> None:
        from repro.xgc import CollisionProxyApp, PicardOptions, ProxyAppConfig

        self.steps = steps
        self.app = CollisionProxyApp(
            ProxyAppConfig(
                num_mesh_nodes=nodes,
                seed=seed,
                picard=PicardOptions(warm_start=warm_start),
            )
        )
        self.f0 = self.app.initial_state()

    def call(self):
        return self.app.run(self.steps, f0=self.f0)

    def outputs(self, result) -> list[bytes]:
        return _bits(
            result.f_final, *(s.linear_iterations for s in result.step_results)
        )

    def check(self, result) -> list[str]:
        problems = []
        volumes = self.app.config.grid.cell_volumes()
        f_prev = self.f0
        for k, step in enumerate(result.step_results):
            bad = int(np.count_nonzero(~step.converged))
            if bad:
                problems.append(f"step {k}: {bad} systems did not converge")
            if not step.conservation.all_ok:
                problems.append(f"step {k}: conservation report not ok")
            before, after = f_prev @ volumes, step.f_new @ volumes
            drift = float(np.max(np.abs(after - before) / np.abs(before)))
            if not drift <= DENSITY_TOL:
                problems.append(f"step {k}: density drift {drift:.3e} > {DENSITY_TOL}")
            f_prev = step.f_new
        if not np.all(np.isfinite(result.f_final)):
            problems.append("f_final has non-finite entries")
        return problems

    def accounting(self, result) -> tuple[int, int, int]:
        """Work is system solves: batch x Picard solves x steps."""
        nb = self.app.config.num_batch
        solves = sum(s.linear_iterations.shape[0] for s in result.step_results)
        failed = sum(int(np.count_nonzero(~s.converged)) for s in result.step_results)
        return nb * solves, nb * solves, failed

    def step_model_s(self, result) -> list[float]:
        """V100 model time of each step: its solves priced at measured iterations."""
        from repro.gpu.hardware import V100
        from repro.gpu.timing import estimate_iterative_solve

        stencil = self.app.stencil
        n = stencil.num_rows
        stored = int(stencil.nnz_per_row().max()) * n
        opts = self.app.config.picard
        return [
            sum(
                estimate_iterative_solve(
                    V100, opts.matrix_format, n, stencil.nnz, its,
                    stored_nnz=stored, solver=opts.solver,
                ).total_time_s
                for its in step.linear_iterations
            )
            for step in result.step_results
        ]

    def model(self, result) -> dict:
        """A step is the unit of latency: its V100 model time."""
        steps = self.step_model_s(result)
        work, _, _ = self.accounting(result)
        return {
            "model_system_solves_per_s": work / sum(steps),
            "model_latency_p50_ms": float(np.median(steps)) * 1e3,
        }

    def extra(self, result) -> dict:
        iters = sum(int(s.linear_iterations.sum()) for s in result.step_results)
        return {
            "num_batch": self.app.config.num_batch,
            "steps": len(result.step_results),
            "linear_iterations": iters,
        }


class ServiceWorkload:
    """``serve_traffic`` on seeded Poisson arrivals (open loop, virtual time)."""

    family = "service"

    def __init__(self, *, duration_s: float, seed: int) -> None:
        from repro.service import (
            CoalescePolicy,
            QosPolicy,
            TenantSpec,
            TrafficPattern,
            WorkloadSpec,
            traffic,
        )

        self.traffic = traffic
        self.pattern = TrafficPattern(
            "poisson", rate_hz=20_000, duration_s=duration_s, seed=seed
        )
        self.spec = WorkloadSpec(
            num_rows=128,
            systems_choices=(1, 2),
            tenants=(("interactive", 3.0), ("batch", 1.0)),
        )
        self.qos = QosPolicy(
            capacity=4096,
            tenants=(
                TenantSpec("interactive", weight=3.0, deadline_s=10e-3),
                TenantSpec("batch", weight=1.0, deadline_s=50e-3),
            ),
        )
        self.coalesce = CoalescePolicy(max_batch=64, max_wait_s=2e-3)

    def call(self):
        # Looked up on the module at call time, so a traced run's rebinding applies.
        return self.traffic.serve_traffic(
            self.pattern, self.spec, qos=self.qos, coalesce=self.coalesce
        )

    def outputs(self, run) -> list[bytes]:
        done = [r for r in run.results if r is not None]
        report = json.dumps(run.report.to_dict(), sort_keys=True).encode()
        return _bits(
            np.concatenate([r.x for r in done]),
            np.concatenate([r.iterations for r in done]),
            np.concatenate([r.residual_norms for r in done]),
            np.array([(r.submit_time, r.dispatch_time, r.finish_time, r.batch_id)
                      for r in done]),
        ) + [report]

    def _requests(self):
        """The requests ``run_traffic`` generates, replayed from the same seed."""
        rng = np.random.default_rng(self.pattern.seed + 1)
        names = [name for name, _ in self.spec.tenants]
        shares = np.asarray([share for _, share in self.spec.tenants])
        shares = shares / shares.sum()
        for _ in self.traffic.arrival_times(self.pattern):
            tenant = names[int(rng.choice(len(names), p=shares))]
            yield self.traffic.make_request(rng, self.spec, tenant)

    def check(self, run) -> list[str]:
        problems = []
        arrivals = self.traffic.arrival_times(self.pattern)
        if len(run.results) != arrivals.size:
            return [f"{len(run.results)} results for {arrivals.size} arrivals"]
        shed = sum(r is None for r in run.results)
        if shed:
            problems.append(f"{shed} requests shed")
        submitted = np.array([np.nan if r is None else r.submit_time for r in run.results])
        if not np.array_equal(submitted, arrivals):
            late = float(np.nanmax(np.abs(submitted - arrivals)))
            problems.append(f"generator late: worst submit offset {late:.3e} s")
        tol = self.spec.tolerance
        unconverged = residual_fail = 0
        for req, res in zip(self._requests(), run.results):
            if res is None:
                continue
            if not np.all(res.converged) or np.any(res.residual_norms > tol):
                unconverged += 1
            # True residual b - A x of the tridiagonal ELL systems, computed here.
            cols = np.maximum(req.matrix.col_idxs, 0)
            ax = np.einsum("bkn,bkn->bn", req.matrix.values, res.x[:, cols])
            if np.any(np.linalg.norm(req.b - ax, axis=1) > tol * RESIDUAL_SLACK):
                residual_fail += 1
        if unconverged:
            problems.append(f"{unconverged} tickets unconverged or above tolerance")
        if residual_fail:
            problems.append(f"{residual_fail} tickets fail the true-residual check")
        return problems

    def accounting(self, run) -> tuple[int, int, int]:
        """Work is completed systems; attempts and failures count tickets."""
        failed = sum(r is None or not np.all(r.converged) for r in run.results)
        return run.report.completed_systems, len(run.results), failed

    def model(self, run) -> dict:
        rep = run.report
        return {
            "model_system_solves_per_s": rep.completed_systems / rep.device_busy_s,
            "model_latency_p50_ms": float(np.median(rep.latencies)) * 1e3,
        }

    def extra(self, run) -> dict:
        rep = run.report
        lat = np.asarray(rep.latencies)
        tail = _tail_percentile(lat.size)
        return {
            "requests": rep.submitted,
            "model_latency_tail_ms": float(np.percentile(lat, tail)) * 1e3,
            "model_latency_tail_pct": tail,
            "model_deadline_miss_frac": rep.deadline_miss_rate,
            "service.batches": rep.batches,
            "service.batch_systems_mean": rep.mean_batch_size,
            "service.model_device_busy_frac": rep.device_busy_s / rep.makespan_s,
            "service.model_queue_delay_p50_ms": float(np.median(rep.queue_delays)) * 1e3,
            "service.flush.batch_full": rep.flush_reasons.get("batch-full", 0),
            "service.flush.max_wait": rep.flush_reasons.get("max-wait", 0),
            "service.flush.deadline": rep.flush_reasons.get("deadline-pressure", 0),
        }


def build(name: str, seed: int, *, smoke: bool = False):
    """Construct workload ``name`` for ``seed`` (``smoke`` shrinks it for tests)."""
    if name == "picard_b240_warm":
        return PicardWorkload(nodes=2 if smoke else 120, steps=1, warm_start=True, seed=seed)
    if name == "picard_b240_cold":
        return PicardWorkload(nodes=2 if smoke else 120, steps=1, warm_start=False, seed=seed)
    if name == "picard_b16_warm":
        return PicardWorkload(nodes=2 if smoke else 8, steps=2 if smoke else 5,
                              warm_start=True, seed=seed)
    if name == "service_poisson":
        return ServiceWorkload(duration_s=0.005 if smoke else 0.05, seed=seed)
    raise ValueError(f"unknown workload {name!r}")
