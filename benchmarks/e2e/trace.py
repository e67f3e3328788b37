"""Span tracing for the traced benchmark run, from outside the program.

:func:`installed` rebinds a fixed list of public callables (:func:`targets`)
to timing wrappers and restores the originals on exit, even if the run
raises -- the idiom ``count_batch_ops`` uses in
``repro.core.solvers.schedule``.  Nothing in ``src/`` is edited and an
untraced run executes none of this code.

Every wrapped call records one span: layer name, start, end, parent span
and a trace id (``step:<k>`` in the Picard loop, ``request:<id>`` or
``batch:<id>`` in the service, ``scheduler`` for coalescer decisions).
All wrapped callables are synchronous, so spans nest strictly even inside
the service's event loop: a coroutine only yields at an ``await``, never
inside a wrapped call.

This module shadows the standard library's ``trace`` for scripts in this
directory; nothing here uses the standard one.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time

import numpy as np

#: BLAS-1 names the solver modules bind, split into reductions and updates.
REDUCTIONS = ("batch_dot", "batch_norm2", "fused_dots")
UPDATES = ("fused_update", "masked_assign", "masked_axpy", "masked_fill")

#: Layers whose self time is the application's own Python driver.
DRIVER_LAYERS = (
    "xgc.proxyapp", "xgc.picard",
    "service.serve_traffic", "service.submit", "service.coalescer",
    "service.dispatcher.concat",
)

VERIFY = "core.solvers.verify"


# -- hooks: per-call counters and trace ids -----------------------------------

def _step_id(tracer, args):
    tracer.steps += 1
    return f"step:{tracer.steps - 1}"


def _request_id(tracer, args):
    return f"request:{args[1].request_id}"


def _scheduler_id(tracer, args):
    return "scheduler"


def _batch_id(tracer, args):
    return f"batch:{tracer.batch_of.get(args[0][0].request_id, '?')}"


def _tag_submit(tracer, idx, args, result):
    # The service assigns the request id inside submit().
    tracer.ids[idx] = f"request:{args[1].request_id}"


def _count_batches(tracer, idx, args, result):
    for batch in result:
        tracer.batch_of[batch.requests[0].request_id] = batch.batch_id


def _count_spmv(tracer, idx, args, result):
    matrix, x = args[0], args[1]
    c = tracer.counters
    c["spmv.bytes"] += matrix.storage_bytes() + 2 * x.nbytes
    c["spmv.rows"] += matrix.num_batch * matrix.num_rows
    if tracer.open_count[VERIFY]:
        c["spmv.verify_s"] += tracer.ends[idx] - tracer.starts[idx]


def _count_solve(tracer, idx, args, result):
    tracer.counters["solvers.iterations"] += int(result.iterations.sum())


def _count_verify(tracer, idx, args, result):
    x = args[0].state.x
    c = tracer.counters
    c["verify.systems"] += x.shape[0]
    c["verify.rows"] += x.shape[0] * x.shape[1]
    c["verify.confirmed"] += int(np.count_nonzero(result[0]))


def _count_compaction(tracer, idx, args, result):
    if result is not None:
        matrix = result[0]
        tracer.counters["compaction.events"] += 1
        tracer.counters["compaction.rows"] += matrix.num_batch * matrix.num_rows


def targets():
    """``(owner, attribute, layer, trace_id_fn, sets_ambient, hook)`` to rebind."""
    from repro.core import batch_csr, batch_dia, batch_ell, compaction, preconditioners
    from repro.core.solvers import base, bicgstab, pipelined_bicgstab
    from repro.service import coalescer, dispatcher, service, traffic
    from repro.xgc import assembly, picard, proxyapp

    out = [
        (proxyapp.CollisionProxyApp, "run", "xgc.proxyapp", None, False, None),
        (picard.PicardStepper, "step", "xgc.picard", _step_id, True, None),
        (picard, "linearized_coefficients_masses", "xgc.collision", None, False, None),
        (picard, "apply_conservation_fix", "xgc.conservation", None, False, None),
        (picard, "check_conservation", "xgc.conservation", None, False, None),
        (assembly.CollisionStencil, "assemble", "xgc.assembly", None, False, None),
        (assembly.CollisionStencil, "assemble_ell", "xgc.assembly", None, False, None),
        (assembly.CollisionStencil, "assemble_dia", "xgc.assembly", None, False, None),
        (base.BatchedIterativeSolver, "solve", "core.solvers", None, False, _count_solve),
        (base.IterationDriver, "verify_and_freeze", VERIFY, None, False, _count_verify),
        (compaction.BatchCompactor, "compact", "core.compaction", None, False,
         _count_compaction),
        (batch_ell.BatchEll, "apply", "core.spmv", None, False, _count_spmv),
        (batch_dia.BatchDia, "apply", "core.spmv", None, False, _count_spmv),
        (batch_csr.BatchCsr, "apply", "core.spmv", None, False, _count_spmv),
        (preconditioners.JacobiPreconditioner, "generate", "core.precond", None, False, None),
        (preconditioners.JacobiPreconditioner, "apply", "core.precond", None, False, None),
        (traffic, "serve_traffic", "service.serve_traffic", None, False, None),
        (service.SolverService, "submit", "service.submit", None, False, _tag_submit),
        (coalescer.Coalescer, "add", "service.coalescer", _request_id, False,
         _count_batches),
        (coalescer.Coalescer, "due", "service.coalescer", _scheduler_id, False,
         _count_batches),
        (coalescer.Coalescer, "next_flush_time", "service.coalescer", _scheduler_id,
         False, None),
        (coalescer, "tune_for_matrix", "gpu.tuning", None, False, None),
        (dispatcher, "concat_requests", "service.dispatcher.concat", _batch_id, True, None),
        (dispatcher, "estimate_iterative_solve", "gpu.timing", None, False, None),
    ]
    for mod in (base, bicgstab, pipelined_bicgstab):
        for names, layer in ((REDUCTIONS, "core.blas.reduce"), (UPDATES, "core.blas.update")):
            out += [(mod, n, layer, None, False, None) for n in names if hasattr(mod, n)]
    return out


def _original(owner, attr):
    """The attribute as stored on ``owner`` (functions, not bound methods)."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


class Tracer:
    """In-memory span recorder; one instance serves every traced repeat."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self._code: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and counters before a repeat."""
        self.codes: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ids: list[str] = []
        self._stack: list[int] = []
        self.open_count = dict.fromkeys(self.layers, 0)
        self.ambient: str | None = None
        self.steps = 0
        self.batch_of: dict[int, int] = {}
        self.counters = dict.fromkeys(
            ("spmv.bytes", "spmv.rows", "spmv.verify_s", "solvers.iterations",
             "verify.systems", "verify.rows", "verify.confirmed",
             "compaction.events", "compaction.rows"),
            0,
        )

    def _layer(self, name: str) -> int:
        if name not in self._code:
            self._code[name] = len(self.layers)
            self.layers.append(name)
            self.open_count[name] = 0
        return self._code[name]

    def wrap(self, fn, layer, trace_id_fn=None, sets_ambient=False, hook=None):
        """A wrapper around ``fn`` recording one ``layer`` span per call."""
        code = self._layer(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            if trace_id_fn is not None:
                tid = trace_id_fn(self, args)
                if sets_ambient:
                    self.ambient = tid
            elif not stack:
                tid = "run"
            elif len(stack) == 1:
                tid = self.ambient or self.ids[stack[0]]
            else:
                tid = self.ids[stack[-1]]
            idx = len(self.codes)
            self.codes.append(code)
            self.parents.append(stack[-1] if stack else -1)
            self.ids.append(tid)
            self.ends.append(0.0)
            self.open_count[layer] += 1
            stack.append(idx)
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                stack.pop()
                self.open_count[layer] -= 1
            if hook is not None:
                hook(self, idx, args, result)
            return result

        return traced

    def spans(self) -> dict:
        """The recorded spans as arrays, with each span's self time."""
        start = np.asarray(self.starts)
        dur = np.asarray(self.ends) - start
        parent = np.asarray(self.parents, dtype=np.int64)
        has_parent = parent >= 0
        covered = np.zeros_like(dur)
        np.add.at(covered, parent[has_parent], dur[has_parent])
        return {
            "code": np.asarray(self.codes, dtype=np.int64),
            "start": start,
            "dur": dur,
            "self": dur - covered,
            "parent": parent,
        }


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Rebind every target to a tracing wrapper; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, layer, tid_fn, ambient, hook in targets():
            orig = _original(owner, attr)
            saved.append((owner, attr, orig))
            setattr(owner, attr, tracer.wrap(orig, layer, tid_fn, ambient, hook))
        yield tracer
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def repeat_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer metrics of one traced repeat whose harness-timed wall is ``wall_s``."""
    sp = tracer.spans()
    nlay = len(tracer.layers)
    self_s = np.bincount(sp["code"], weights=sp["self"], minlength=nlay)
    incl_s = np.bincount(sp["code"], weights=sp["dur"], minlength=nlay)
    calls = np.bincount(sp["code"], minlength=nlay)
    # (self_s, inclusive_s, calls) of every installed layer, called or not.
    by = dict(zip(tracer.layers, zip(self_s.tolist(), incl_s.tolist(), calls.tolist())))

    roots = np.flatnonzero(sp["parent"] < 0)
    root_s = float(sp["dur"][roots].sum())
    tail_s = 0.0
    if roots.size == 1:
        root = int(roots[0])
        kids = np.flatnonzero(sp["parent"] == root)
        if kids.size:
            last_end = float((sp["start"][kids] + sp["dur"][kids]).max())
            tail_s = float(sp["start"][root] + sp["dur"][root]) - last_end

    c = tracer.counters
    out = {f"{layer}.self_s": s for layer, (s, _, _) in by.items()}
    out.update({
        "core.spmv.calls": by["core.spmv"][2],
        "core.spmv.rows": c["spmv.rows"],
        "core.spmv.bytes": c["spmv.bytes"],
        "core.spmv.verify_s": c["spmv.verify_s"],
        "core.solvers.verify.incl_s": by[VERIFY][1],
        "core.solvers.verify.events": by[VERIFY][2],
        "core.solvers.verify.rows": c["verify.rows"],
        "core.solvers.verify.systems": c["verify.systems"],
        "core.solvers.verify.confirmed": c["verify.confirmed"],
        "core.compaction.events": c["compaction.events"],
        "core.compaction.rows_gathered": c["compaction.rows"],
        "core.solvers.iterations": c["solvers.iterations"],
        "core.blas.reduce_s": by["core.blas.reduce"][0],
        "core.blas.reduce_calls": by["core.blas.reduce"][2],
        "core.blas.update_s": by["core.blas.update"][0],
        "core.blas.update_calls": by["core.blas.update"][2],
        "app.driver.self_s": sum(by[layer][0] for layer in DRIVER_LAYERS),
        "app.tail_s": tail_s,
        "harness.unattributed_s": wall_s - root_s,
        "harness.wall_s": wall_s,
        "harness.span_self_sum_s": float(sp["self"].sum()),
        "harness.spans": len(tracer.codes),
    })
    if by["service.serve_traffic"][2]:
        out["service.serve_traffic.tail_s"] = tail_s
        out["service.dispatcher.concat_s"] = by["service.dispatcher.concat"][0]
    return out


def write_trace(tracer: Tracer, path_json, path_chrome, meta: dict) -> None:
    """Write the recorded spans as columnar JSON and as Chrome trace events."""
    sp = tracer.spans()
    t0 = float(sp["start"].min()) if sp["start"].size else 0.0
    layers = tracer.layers
    with open(path_json, "w") as fh:
        json.dump({
            **meta,
            "layers": layers,
            "columns": ["layer", "start_s", "end_s", "self_s", "parent", "trace_id"],
            "spans": [
                [layers[c], s - t0, s - t0 + d, sf, p, tid]
                for c, s, d, sf, p, tid in zip(
                    sp["code"].tolist(), sp["start"].tolist(), sp["dur"].tolist(),
                    sp["self"].tolist(), sp["parent"].tolist(), tracer.ids,
                )
            ],
        }, fh)
    with open(path_chrome, "w") as fh:
        json.dump({
            "displayTimeUnit": "ms",
            "otherData": meta,
            "traceEvents": [
                {"name": layers[c], "cat": layers[c].split(".")[0], "ph": "X",
                 "ts": (s - t0) * 1e6, "dur": d * 1e6, "pid": 1, "tid": 1,
                 "args": {"trace_id": tid}}
                for c, s, d, tid in zip(
                    sp["code"].tolist(), sp["start"].tolist(), sp["dur"].tolist(),
                    tracer.ids,
                )
            ],
        }, fh)
