"""Finite-volume assembly of the backward-Euler collision matrices.

The collision operator of :mod:`repro.xgc.collision` is discretised with a
conservative cell-centred finite-volume scheme on the tensor-product
velocity grid.  Face fluxes combine

* normal diffusion (``D_nn``, two-point),
* cross diffusion from the pitch-angle tensor (``D_nt``, four-point face
  tangential derivative — this is what widens the stencil to nine points,
  exactly like the Rosenbluth-tensor discretisation in XGC), and
* central drift fluxes.

Boundary faces carry zero flux (the ``v_perp = 0`` axis has ``J = 0`` so
its flux vanishes identically), which makes the scheme conserve density to
machine precision.  Tangential derivatives at faces adjacent to a boundary
fall back to one-sided differences, so boundary rows have fewer than nine
entries — matching the paper's description of the pattern (Fig. 4: 992
rows, 9 non-zeros per interior row, short boundary rows).

**Key performance idea** — the backward-Euler matrix is affine in the five
Picard-frozen coefficient combinations::

    M(c) = I - dt [ nu*vt2 * T_diff + nu*eta * T_pitch
                    + nu * T_drift_v - nu*u * T_drift_1 ]

so :class:`CollisionStencil` precomputes the four geometric templates
``T_*`` (plus identity) *once per grid* as dense vectors over the shared
union sparsity pattern, and each assembly reduces to one
``(num_batch, 5) @ (5, nnz)`` matrix product.  Re-assembling inside every
Picard iteration costs one small GEMM (run in row blocks small enough for
OpenBLAS to keep each on one thread) and zero index manipulation.
"""

from __future__ import annotations

import numpy as np

from ..core.batch_csr import BatchCsr
from ..core.batch_dia import BatchDia
from ..core.batch_ell import BatchEll
from ..core.convert import to_format
from ..core.spmv import BatchMatrix
from ..core.types import DTYPE, INDEX_DTYPE
from .collision import CollisionCoefficients
from .grid import VelocityGrid

__all__ = ["CollisionStencil"]

#: Template order used in the coefficient-combination GEMM.
_TEMPLATES = ("identity", "diff", "pitch", "drift_v", "drift_1")

#: Largest ``m * n * k`` that OpenBLAS runs on the calling thread alone
#: (``SMP_THRESHOLD_MIN * GEMM_MULTITHREAD_THRESHOLD`` = 65536 * 4).  A
#: larger GEMM wakes its worker threads, which then spin-wait for work on
#: cores the Picard shard threads need.
GEMM_SERIAL_MNK = 65536 * 4


def _gemm_row_blocks(num_batch: int, row_mnk: int) -> list[tuple[int, int]]:
    """Balanced ``[lo, hi)`` row blocks of an assembly GEMM.

    Each block holds at least two rows, because NumPy sends a one-row
    product to GEMV, whose sums may round differently; a single system is
    one block.  Where three rows fit under :data:`GEMM_SERIAL_MNK`
    (``row_mnk`` per row; five at n = 992), every block does, so OpenBLAS
    keeps it on the calling thread.
    """
    per_block = max(2, GEMM_SERIAL_MNK // row_mnk)
    count = max(1, min(-(-num_batch // per_block), num_batch // 2))
    return [
        (k * num_batch // count, (k + 1) * num_batch // count) for k in range(count)
    ]


class CollisionStencil:
    """Precomputed geometric stencil templates for one velocity grid.

    Parameters
    ----------
    grid:
        The velocity grid; the stencil is reusable for every species and
        every batch assembled on this grid (they all share the pattern).
    """

    def __init__(self, grid: VelocityGrid):
        self.grid = grid
        self._coo: dict[str, list[tuple[np.ndarray, np.ndarray, np.ndarray]]] = {
            name: [] for name in _TEMPLATES
        }
        self._build_identity()
        self._build_east_faces()
        self._build_north_faces()
        self._finalize()
        # The five templates as a 5-system batch per format, built lazily
        # on the first assembly in that format (once per grid).
        self._template_batches: dict[str, BatchMatrix] = {}

    # -- public API -------------------------------------------------------

    @property
    def num_rows(self) -> int:
        """Matrix dimension (= grid cell count)."""
        return self.grid.num_cells

    @property
    def nnz(self) -> int:
        """Stored entries of the shared pattern."""
        return self.col_idxs.shape[0]

    def nnz_per_row(self) -> np.ndarray:
        """Row lengths of the shared pattern (9 for interior rows)."""
        return np.diff(self.row_ptrs)

    def _coefficient_matrix(self, coeffs: CollisionCoefficients) -> np.ndarray:
        """Per-batch template weights, shape ``(num_batch, 5)``."""
        c = np.empty((coeffs.num_batch, len(_TEMPLATES)), dtype=DTYPE)
        dt_nu = coeffs.dt * coeffs.nu
        c[:, 0] = 1.0  # identity
        c[:, 1] = -dt_nu * coeffs.vt2  # diffusion
        c[:, 2] = -dt_nu * coeffs.eta  # pitch-angle tensor
        c[:, 3] = -dt_nu  # drift, v-proportional part
        c[:, 4] = dt_nu * coeffs.u_par  # drift, -u part (sign folded in)
        return c

    def _template_batch(self, fmt: str) -> BatchMatrix:
        """The five geometric templates as a 5-system batch in ``fmt``.

        Built once per grid and format by converting the union-pattern CSR
        templates, so its values array *is* the template matrix of the
        assembly GEMM: ELL padding and the DIA fringe and boundary holes
        stay zero in every template, and the GEMM writes the exact 0.0
        those formats require.  Every assembled batch shares this batch's
        pattern arrays by reference.
        """
        batch = self._template_batches.get(fmt)
        if batch is None:
            csr = BatchCsr(
                self.num_rows, self.row_ptrs, self.col_idxs, self.templates,
                check=False,
            )
            batch = self._template_batches[fmt] = to_format(csr, fmt)
        return batch

    def _assemble(self, fmt: str, coeffs: CollisionCoefficients, out):
        """The coefficient matrix times the ``fmt`` templates.

        One GEMM per block of :func:`_gemm_row_blocks`, in every format.
        OpenBLAS rounds the template columns past the last multiple of its
        kernel's column unroll (8 columns) differently in a small GEMM than
        in a large one.  Under the single-thread cut-off every block takes
        the small kernel, so a system's values do not depend on its batch:
        ELL and DIA blocks equal one GEMM of the whole batch bit for bit
        (their trailing columns hold zero padding or fringe), and CSR
        values equal the converted ELL assembly bit for bit.  One CSR GEMM
        of a large batch has no such reference: its last two columns (of
        8554 at n = 992) round with the batch size and the BLAS thread
        count.
        """
        templates = self._template_batch(fmt)
        num_batch = coeffs.num_batch
        if out is None:
            out = np.empty((num_batch,) + templates.values.shape[1:], dtype=DTYPE)
        coeff = self._coefficient_matrix(coeffs)
        tmpl = templates.values.reshape(len(_TEMPLATES), -1)
        flat = out.reshape(num_batch, -1)
        for lo, hi in _gemm_row_blocks(num_batch, tmpl.size):
            np.matmul(coeff[lo:hi], tmpl, out=flat[lo:hi])
        return templates.with_values(out)

    def assemble(
        self, coeffs: CollisionCoefficients, *, out: np.ndarray | None = None
    ) -> BatchCsr:
        """Assemble the batched backward-Euler matrix ``M = I - dt*C_lin``.

        One GEMM: the per-batch coefficient matrix against the geometric
        template matrix, in row blocks (see :meth:`_assemble`).  ``out`` is
        an optional preallocated ``(num_batch, nnz)`` values buffer (a
        Picard driver reuses one across all its assemblies).
        """
        return self._assemble("csr", coeffs, out)

    def assemble_ell(
        self, coeffs: CollisionCoefficients, *, out: np.ndarray | None = None
    ) -> BatchEll:
        """Assemble directly into the ELL format (same values, ELL layout).

        The same GEMM as :meth:`assemble`, in row blocks, landing straight
        in the padded slot layout — no CSR intermediate, no per-iteration
        index manipulation.  ``out`` is an optional ``(num_batch,
        max_nnz_row, num_rows)`` values buffer.
        """
        return self._assemble("ell", coeffs, out)

    def assemble_dia(
        self, coeffs: CollisionCoefficients, *, out: np.ndarray | None = None
    ) -> BatchDia:
        """Assemble directly into the gather-free DIA format.

        The same GEMM as :meth:`assemble`, in row blocks, with the values
        landing in band layout.  ``out`` is an optional ``(num_batch,
        num_diags, num_rows)`` values buffer.
        """
        return self._assemble("dia", coeffs, out)

    # -- template construction ------------------------------------------------

    def _add(self, tmpl: str, rows, cols, vals) -> None:
        """Append COO triplets (arrays broadcast to a common length)."""
        rows, cols, vals = np.broadcast_arrays(rows, cols, vals)
        self._coo[tmpl].append(
            (
                rows.reshape(-1).astype(np.int64),
                cols.reshape(-1).astype(np.int64),
                vals.reshape(-1).astype(DTYPE),
            )
        )

    def _build_identity(self) -> None:
        n = self.grid.num_cells
        idx = np.arange(n, dtype=np.int64)
        self._add("identity", idx, idx, np.ones(n))

    def _face_flux(
        self,
        tmpl: str,
        rows_minus: np.ndarray,
        rows_plus: np.ndarray,
        inv_minus: np.ndarray,
        inv_plus: np.ndarray,
        cols: np.ndarray,
        weights: np.ndarray,
    ) -> None:
        """Scatter one stencil point of a face flux to both owner cells.

        ``rows_minus`` owns the face on its positive side (flux enters its
        divergence with ``+``), ``rows_plus`` on its negative side (``-``).
        ``inv_*`` hold the owners' ``1 / (J_c * h)`` divergence factors.
        """
        self._add(tmpl, rows_minus, cols, weights * inv_minus)
        self._add(tmpl, rows_plus, cols, -weights * inv_plus)

    def _build_east_faces(self) -> None:
        """Fluxes through constant-``v_par`` interior faces."""
        g = self.grid
        nx, ny = g.nv_par, g.nv_perp
        hx, hy = g.h_par, g.h_perp
        if nx < 2:
            return

        i = np.arange(nx - 1)
        j = np.arange(ny)
        I, J = np.meshgrid(i, j, indexing="ij")  # faces: (nx-1, ny)
        I, J = I.reshape(-1), J.reshape(-1)

        xf = -g.v_par_max + (I + 1) * hx  # face v_par coordinate
        yc = g.v_perp[J]  # face (and both owners') v_perp
        jac = yc  # J at the face

        idx = lambda ii, jj: jj * nx + ii  # noqa: E731
        left = idx(I, J)
        right = idx(I + 1, J)
        inv = 1.0 / (yc * hx)  # same J_c for both owners of an E face

        def flux(tmpl, cols, weights):
            self._face_flux(tmpl, left, right, inv, inv, cols, weights)

        # Normal diffusion: J * (f_R - f_L) / hx.
        flux("diff", right, jac / hx)
        flux("diff", left, -jac / hx)
        # Pitch normal part: D_xx^pitch = y^2.
        flux("pitch", right, jac * yc**2 / hx)
        flux("pitch", left, -jac * yc**2 / hx)
        # Drift (v-part): J * x_f * (f_L + f_R) / 2.
        flux("drift_v", left, jac * xf / 2.0)
        flux("drift_v", right, jac * xf / 2.0)
        # Drift (constant part): J * (f_L + f_R) / 2.
        flux("drift_1", left, jac / 2.0)
        flux("drift_1", right, jac / 2.0)

        # Pitch cross part: D_xy = -x*y times the face-tangential
        # derivative df/dy; central in the interior, one-sided at the
        # perpendicular boundaries.
        coef = jac * (-xf * yc)
        interior = (J > 0) & (J < ny - 1)
        low, high = J == 0, J == ny - 1

        def cross(mask, cols_fn, w_scale):
            m = np.flatnonzero(mask)
            if m.size == 0:
                return
            Im, Jm = I[m], J[m]
            lm, rm = left[m], right[m]
            invm = inv[m]
            cm = coef[m] * w_scale
            for di, dj, sgn in cols_fn:
                cols = idx(Im + di, Jm + dj)
                self._face_flux("pitch", lm, rm, invm, invm, cols, sgn * cm)

        quarter = 1.0 / (4.0 * hy)
        half = 1.0 / (2.0 * hy)
        cross(
            interior,
            [(0, 1, 1.0), (1, 1, 1.0), (0, -1, -1.0), (1, -1, -1.0)],
            quarter,
        )
        cross(low, [(0, 1, 1.0), (1, 1, 1.0), (0, 0, -1.0), (1, 0, -1.0)], half)
        cross(high, [(0, 0, 1.0), (1, 0, 1.0), (0, -1, -1.0), (1, -1, -1.0)], half)

    def _build_north_faces(self) -> None:
        """Fluxes through constant-``v_perp`` interior faces."""
        g = self.grid
        nx, ny = g.nv_par, g.nv_perp
        hx, hy = g.h_par, g.h_perp
        if ny < 2:
            return

        i = np.arange(nx)
        j = np.arange(ny - 1)
        I, J = np.meshgrid(i, j, indexing="ij")
        I, J = I.reshape(-1), J.reshape(-1)

        xc = g.v_par[I]  # face (and both owners') v_par
        yf = (J + 1) * hy  # face v_perp coordinate
        jac = yf

        idx = lambda ii, jj: jj * nx + ii  # noqa: E731
        south = idx(I, J)
        north = idx(I, J + 1)
        inv_s = 1.0 / (g.v_perp[J] * hy)  # owner Jacobians differ here
        inv_n = 1.0 / (g.v_perp[J + 1] * hy)

        def flux(tmpl, cols, weights):
            self._face_flux(tmpl, south, north, inv_s, inv_n, cols, weights)

        # Normal diffusion: J * (f_N - f_S) / hy.
        flux("diff", north, jac / hy)
        flux("diff", south, -jac / hy)
        # Pitch normal part: D_yy^pitch = x^2.
        flux("pitch", north, jac * xc**2 / hy)
        flux("pitch", south, -jac * xc**2 / hy)
        # Drift (v-part): w_y = y -> J * y_f * (f_S + f_N) / 2.
        flux("drift_v", south, jac * yf / 2.0)
        flux("drift_v", north, jac * yf / 2.0)
        # No constant drift component in the perpendicular direction.

        # Pitch cross part: D_yx = -x*y times df/dx at the face.
        coef = jac * (-xc * yf)
        interior = (I > 0) & (I < nx - 1)
        low, high = I == 0, I == nx - 1

        def cross(mask, cols_fn, w_scale):
            m = np.flatnonzero(mask)
            if m.size == 0:
                return
            Im, Jm = I[m], J[m]
            sm, nm = south[m], north[m]
            ism, inm = inv_s[m], inv_n[m]
            cm = coef[m] * w_scale
            for di, dj, sgn in cols_fn:
                cols = idx(Im + di, Jm + dj)
                self._face_flux("pitch", sm, nm, ism, inm, cols, sgn * cm)

        quarter = 1.0 / (4.0 * hx)
        half = 1.0 / (2.0 * hx)
        cross(
            interior,
            [(1, 0, 1.0), (1, 1, 1.0), (-1, 0, -1.0), (-1, 1, -1.0)],
            quarter,
        )
        cross(low, [(1, 0, 1.0), (1, 1, 1.0), (0, 0, -1.0), (0, 1, -1.0)], half)
        cross(high, [(0, 0, 1.0), (0, 1, 1.0), (-1, 0, -1.0), (-1, 1, -1.0)], half)

    def _finalize(self) -> None:
        """Fold the per-template COO data onto the union sparsity pattern."""
        n = self.grid.num_cells

        per_template: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        all_keys = []
        for name in _TEMPLATES:
            chunks = self._coo[name]
            if chunks:
                rows = np.concatenate([c[0] for c in chunks])
                cols = np.concatenate([c[1] for c in chunks])
                vals = np.concatenate([c[2] for c in chunks])
            else:
                rows = np.empty(0, dtype=np.int64)
                cols = np.empty(0, dtype=np.int64)
                vals = np.empty(0, dtype=DTYPE)
            per_template[name] = (rows, cols, vals)
            all_keys.append(rows * n + cols)
        del self._coo

        union = np.unique(np.concatenate(all_keys))
        rows_u = union // n
        cols_u = union % n

        row_counts = np.bincount(rows_u, minlength=n)
        self.row_ptrs = np.zeros(n + 1, dtype=INDEX_DTYPE)
        np.cumsum(row_counts, out=self.row_ptrs[1:])
        self.col_idxs = cols_u.astype(INDEX_DTYPE)

        self.templates = np.zeros((len(_TEMPLATES), union.size), dtype=DTYPE)
        for t, name in enumerate(_TEMPLATES):
            rows, cols, vals = per_template[name]
            pos = np.searchsorted(union, rows * n + cols)
            np.add.at(self.templates[t], pos, vals)
