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
union sparsity pattern, and each assembly reduces to a single
``(num_batch, 5) @ (5, nnz)`` matrix product.  Re-assembling inside every
Picard iteration costs one small GEMM and zero index manipulation.
"""

from __future__ import annotations

import numpy as np

from ..core.batch_csr import BatchCsr
from ..core.batch_dia import BatchDia
from ..core.batch_ell import PAD_COL, BatchEll
from ..core.types import DTYPE, INDEX_DTYPE
from .collision import CollisionCoefficients
from .grid import VelocityGrid

__all__ = ["CollisionStencil"]

#: Template order used in the coefficient-combination GEMM.
_TEMPLATES = ("identity", "diff", "pitch", "drift_v", "drift_1")


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
        # DIA- and ELL-layout patterns and templates, built lazily on the
        # first assemble_dia() / assemble_ell() call (once per grid, like
        # the CSR pattern).
        self._dia_templates: np.ndarray | None = None
        self._ell_templates: np.ndarray | None = None

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

    def assemble(
        self, coeffs: CollisionCoefficients, *, out: np.ndarray | None = None
    ) -> BatchCsr:
        """Assemble the batched backward-Euler matrix ``M = I - dt*C_lin``.

        One GEMM: the per-batch coefficient matrix against the geometric
        template matrix.  ``out`` is an optional preallocated
        ``(num_batch, nnz)`` values buffer (a Picard driver reuses one
        across all its assemblies).
        """
        if out is None:
            out = np.empty((coeffs.num_batch, self.nnz), dtype=DTYPE)
        np.matmul(self._coefficient_matrix(coeffs), self.templates, out=out)
        return BatchCsr(
            self.num_rows, self.row_ptrs, self.col_idxs, out, check=False
        )

    def assemble_ell(
        self, coeffs: CollisionCoefficients, *, out: np.ndarray | None = None
    ) -> BatchEll:
        """Assemble directly into the ELL format (same values, ELL layout).

        The union pattern is mapped onto ELL slots once per grid
        (:meth:`_ensure_ell_templates`); after that every assembly is a
        single GEMM landing straight in the padded slot layout — no CSR
        intermediate, no per-iteration index manipulation — and every
        assembled :class:`BatchEll` shares one ``ell_col_idxs`` array.
        ``out`` is an optional ``(num_batch, max_nnz_row, num_rows)``
        values buffer.
        """
        ell_templates = self._ensure_ell_templates()
        shape = (coeffs.num_batch, self.ell_col_idxs.shape[0], self.num_rows)
        if out is None:
            out = np.empty(shape, dtype=DTYPE)
        np.matmul(
            self._coefficient_matrix(coeffs),
            ell_templates,
            out=out.reshape(coeffs.num_batch, -1),
        )
        return BatchEll(self.num_rows, self.ell_col_idxs, out, check=False)

    def assemble_dia(
        self, coeffs: CollisionCoefficients, *, out: np.ndarray | None = None
    ) -> BatchDia:
        """Assemble directly into the gather-free DIA format.

        The union pattern is mapped onto diagonal offsets once per grid
        (:meth:`_ensure_dia_templates`); after that every assembly is the
        same single GEMM as :meth:`assemble`, with the values landing in
        band layout — zero index manipulation per Picard iteration.
        ``out`` is an optional ``(num_batch, num_diags, num_rows)``
        values buffer.
        """
        dia_templates = self._ensure_dia_templates()
        shape = (coeffs.num_batch, self.dia_offsets.size, self.num_rows)
        if out is None:
            out = np.empty(shape, dtype=DTYPE)
        np.matmul(
            self._coefficient_matrix(coeffs),
            dia_templates,
            out=out.reshape(coeffs.num_batch, -1),
        )
        return BatchDia(self.num_rows, self.dia_offsets, out, check=False)

    def _ensure_ell_templates(self) -> np.ndarray:
        """Scatter the union-pattern templates into ELL slot layout (once).

        Produces ``ell_col_idxs`` (shared, int32, padded with
        :data:`~repro.core.batch_ell.PAD_COL`) and a
        ``(5, max_nnz_row * num_rows)`` template matrix whose GEMM output
        *is* the padded ELL values array; padded slots stay zero in every
        template, so the GEMM writes the exact 0.0 the format requires.
        """
        if self._ell_templates is None:
            n = self.num_rows
            per_row = self.nnz_per_row()
            max_nnz = max(int(per_row.max(initial=0)), 1)
            rows = np.repeat(np.arange(n, dtype=np.int64), per_row)
            slot = (
                np.arange(self.nnz, dtype=np.int64)
                - self.row_ptrs[rows].astype(np.int64)
            )
            col_idxs = np.full((max_nnz, n), PAD_COL, dtype=INDEX_DTYPE)
            col_idxs[slot, rows] = self.col_idxs
            self.ell_col_idxs = col_idxs
            scattered = np.zeros((len(_TEMPLATES), max_nnz, n), dtype=DTYPE)
            scattered[:, slot, rows] = self.templates
            self._ell_templates = scattered.reshape(len(_TEMPLATES), -1)
        return self._ell_templates

    def _ensure_dia_templates(self) -> np.ndarray:
        """Scatter the union-pattern templates into DIA band layout (once).

        Produces ``dia_offsets`` (the stencil's constant diagonals — 9 for
        an interior 9-point stencil) and a ``(5, num_diags * num_rows)``
        template matrix whose GEMM output *is* the band values array; the
        boundary rows' missing entries simply stay zero in every template,
        so partially-filled diagonals need no special casing.
        """
        if self._dia_templates is None:
            n = self.num_rows
            rows = np.repeat(np.arange(n, dtype=np.int64), self.nnz_per_row())
            diag_of = self.col_idxs.astype(np.int64) - rows
            # int32 (the format's index dtype) so every assembled BatchDia
            # shares this array by reference, like the CSR pattern arrays.
            self.dia_offsets = np.unique(diag_of).astype(np.int32)
            slot = np.searchsorted(self.dia_offsets, diag_of)
            scattered = np.zeros(
                (len(_TEMPLATES), self.dia_offsets.size, n), dtype=DTYPE
            )
            scattered[:, slot, rows] = self.templates
            self._dia_templates = scattered.reshape(len(_TEMPLATES), -1)
        return self._dia_templates

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
