"""Fused, allocation-free batched BLAS-1 helpers for the solver hot path.

The iterative solvers originally expressed per-system masking with the
``dst = np.where(mask, new, old)`` idiom — every such statement allocates a
full ``(num_batch, num_rows)`` temporary *and* copies the untouched systems.
Rupp et al. ("Pipelined Iterative Solvers with Kernel Fusion") show that for
small systems it is exactly this BLAS-1 glue, not the SpMV, that dominates
the solve; the helpers here are its host-side answer:

* masked updates are in-place (``np.copyto``/ufunc ``where=``), touching
  only the systems named by the mask,
* fused multi-operand updates stream through a caller-provided scratch
  buffer (a :class:`~repro.core.workspace.SolverWorkspace` vector), so the
  whole Picard loop performs zero batch-vector-sized allocations after the
  first solve.

Per-system coefficient arrays of shape ``(num_batch,)`` broadcast over the
row axis; Python scalars are accepted everywhere a coefficient is.

Conventions
-----------
``mask`` is a per-system boolean array of shape ``(num_batch,)``; it is
broadcast across rows when the destination is a batch vector.  ``work``
buffers must have the destination's shape and must not alias any operand.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "fused_dots",
    "masked_assign",
    "masked_fill",
    "masked_axpy",
    "fused_update",
    "pipelined_cg_update",
]


def _per_system(coeff) -> np.ndarray | float:
    """Reshape a ``(num_batch,)`` coefficient for row-axis broadcasting."""
    coeff = np.asarray(coeff)
    if coeff.ndim == 1:
        return coeff[:, None]
    return coeff


def _expand_mask(mask: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Broadcast a per-system mask to the destination's dimensionality."""
    if mask.ndim == dst.ndim:
        return mask
    return mask.reshape(mask.shape + (1,) * (dst.ndim - mask.ndim))


def masked_assign(dst: np.ndarray, src: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """In-place ``dst[k] = src[k]`` for systems where ``mask[k]`` is True.

    Replaces ``dst = np.where(mask, src, dst)`` without allocating and
    without rewriting the untouched systems.  Works on batch vectors
    ``(num_batch, n)`` and per-system scalars ``(num_batch,)`` alike.
    """
    np.copyto(dst, src, where=_expand_mask(mask, dst))
    return dst


def masked_fill(dst: np.ndarray, value: float, mask: np.ndarray) -> np.ndarray:
    """In-place ``dst[k] = value`` for systems where ``mask[k]`` is True."""
    np.copyto(dst, value, where=_expand_mask(mask, dst))
    return dst


def masked_axpy(
    y: np.ndarray,
    alpha,
    x: np.ndarray,
    *,
    mask: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Fused ``y[k] += alpha[k] * x[k]``, restricted to masked systems.

    The scaled operand is formed in ``work`` (allocated only when the caller
    does not supply a scratch buffer) and added in place; systems outside
    the mask are left untouched — the compacted replacement for
    ``y += np.where(mask[:, None], alpha[:, None] * x, 0.0)``.
    """
    if work is None:
        work = np.empty_like(y)
    np.multiply(x, _per_system(alpha), out=work)
    if mask is None:
        np.add(y, work, out=y)
    else:
        np.add(y, work, out=y, where=_expand_mask(mask, y))
    return y


def fused_dots(
    *pairs: tuple[np.ndarray, np.ndarray],
    out: np.ndarray | None = None,
    dtype=None,
) -> np.ndarray:
    """Fused reduction round: ``k`` batched dot products in one pass.

    Each operand pair ``(a, b)`` of shape ``(num_batch, n)`` contributes
    one row of the ``(k, num_batch)`` result — the host analogue of the
    pipelined solvers' single fused-reduction kernel, and the unit the
    schedule layer counts as *one* synchronization round regardless of
    ``k``.  Every row is computed with the exact ``batch_dot`` einsum
    (same contraction order, same ``dtype`` accumulation), so the fused
    path is bit-identical to ``k`` separate ``batch_dot`` calls; the win
    it models is the collapsed device-wide reduction + barrier, not a
    different summation.

    ``dtype`` sets the accumulation dtype of every reduction (the mixed
    policy passes float64); ``out`` must have shape ``(k, num_batch)``.
    """
    if not pairs:
        raise ValueError("fused_dots needs at least one (a, b) operand pair")
    num_batch = pairs[0][0].shape[0]
    if out is None:
        res_dtype = np.result_type(
            dtype if dtype is not None else pairs[0][0].dtype, *[a.dtype for a, _ in pairs]
        )
        out = np.empty((len(pairs), num_batch), dtype=res_dtype)
    if out.shape != (len(pairs), num_batch):
        raise ValueError(
            f"fused_dots out has shape {out.shape}, expected {(len(pairs), num_batch)}"
        )
    for row, (a, b) in zip(out, pairs):
        if a.shape != b.shape:
            raise ValueError(
                f"fused_dots operands differ in shape: {a.shape} vs {b.shape}"
            )
        np.einsum("bi,bi->b", a, b, out=row, dtype=dtype)
    return out


def fused_update(
    p: np.ndarray,
    r: np.ndarray,
    beta,
    omega,
    v: np.ndarray,
    *,
    work: np.ndarray,
) -> np.ndarray:
    """Fused BiCGSTAB direction update ``p = r + beta * (p - omega * v)``.

    The four elementary operations are chained through ``work`` and ``p``
    itself, so the update performs zero allocations — this fuses the three
    separate broadcast statements (each with its own temporary) the solver
    used to issue.
    """
    np.multiply(v, _per_system(omega), out=work)
    np.subtract(p, work, out=p)
    np.multiply(p, _per_system(beta), out=p)
    np.add(p, r, out=p)
    return p


def pipelined_cg_update(
    p: np.ndarray,
    s: np.ndarray,
    u: np.ndarray,
    w: np.ndarray,
    x: np.ndarray,
    r: np.ndarray,
    alpha,
    beta,
    *,
    work: np.ndarray,
) -> None:
    """Merged Chronopoulos–Gear recurrence block of pipelined CG.

    Performs, in place and allocation-free::

        p = u + beta * p          # search direction
        s = w + beta * s          # recurrence for A p (no extra SpMV)
        x = x + alpha * p
        r = r - alpha * s

    On a GPU these four vector updates fuse into a single kernel between
    the SpMV and the one fused reduction of the iteration; on the host the
    scaled operands stream through ``work``.  Frozen systems are handled
    by the caller zeroing their ``alpha``/``beta`` coefficients, so every
    system can be updated unconditionally (masked coefficients, not
    masked kernels — the schedule counts this as one fused group).
    """
    a = _per_system(alpha)
    be = _per_system(beta)
    np.multiply(p, be, out=p)
    np.add(p, u, out=p)
    np.multiply(s, be, out=s)
    np.add(s, w, out=s)
    np.multiply(p, a, out=work)
    np.add(x, work, out=x)
    np.multiply(s, a, out=work)
    np.subtract(r, work, out=r)
