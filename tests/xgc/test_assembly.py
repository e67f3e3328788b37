"""Tests for the finite-volume stencil assembly (the XGC matrices)."""

import collections

import numpy as np
import pytest

from repro.core import to_format
from repro.utils import detect_bandwidths
from repro.xgc import (
    CollisionCoefficients,
    CollisionStencil,
    VelocityGrid,
    maxwellian,
)
from repro.xgc.assembly import GEMM_SERIAL_MNK, _gemm_row_blocks


def uniform_coeffs(nb=1, **kw):
    kw.setdefault("nu", 1.0)
    kw.setdefault("vt2", 1.0)
    kw.setdefault("eta", 0.3)
    kw.setdefault("dt", 0.1)
    return CollisionCoefficients.uniform(nb, **kw)


class TestPattern:
    def test_paper_pattern_992_rows_9_nnz(self, paper_stencil):
        """Fig. 4: 992 rows, 9 non-zeros per (interior) row."""
        assert paper_stencil.num_rows == 992
        hist = collections.Counter(paper_stencil.nnz_per_row().tolist())
        assert hist[9] == 30 * 29  # interior cells
        assert max(hist) == 9
        # Boundary rows are shorter, never longer.
        assert all(k <= 9 for k in hist)

    def test_bandwidth_matches_dgbsv_expectation(self, paper_stencil):
        m = paper_stencil.assemble(uniform_coeffs())
        bw = detect_bandwidths(m)
        assert bw.kl == bw.ku == 33  # nv_par + 1

    def test_stencil_is_local(self, small_grid, small_stencil):
        """Every coupling stays within the 9-point neighbourhood."""
        m = small_stencil.assemble(uniform_coeffs())
        nx = small_grid.nv_par
        rows = np.repeat(
            np.arange(m.num_rows, dtype=np.int64), np.diff(m.row_ptrs)
        )
        cols = m.col_idxs.astype(np.int64)
        di = cols % nx - rows % nx
        dj = cols // nx - rows // nx
        assert np.all(np.abs(di) <= 1)
        assert np.all(np.abs(dj) <= 1)


class TestMatrixProperties:
    def test_mass_conservation_structural(self, small_grid, small_stencil):
        """vol^T (M - I) = 0: the FV fluxes telescope exactly, so density
        is conserved for ANY coefficients."""
        co = uniform_coeffs(2, u_par=0.3, dt=0.2)
        m = small_stencil.assemble(co)
        vol = small_grid.cell_volumes()
        for k in range(2):
            resid = vol @ (m.entry_dense(k) - np.eye(m.num_rows))
            assert np.abs(resid).max() < 1e-12

    def test_equilibrium_annihilation(self, small_grid, small_stencil):
        """M f_M ~ f_M for the matching Maxwellian (up to O(h^2))."""
        co = uniform_coeffs(1, vt2=1.0, u_par=0.0)
        m = small_stencil.assemble(co)
        fm = maxwellian(small_grid, 1.0, 1.0, 0.0)
        err = m.apply(fm[None])[0] - fm
        assert np.abs(err).max() / fm.max() < 2e-2

    def test_equilibrium_error_converges_with_grid(self):
        """The discrete-equilibrium defect shrinks ~O(h^2) under
        refinement — the discretisation is consistent."""
        co = uniform_coeffs(1, vt2=1.0, u_par=0.0)
        errs = []
        for nv in (8, 16, 32):
            g = VelocityGrid(nv_par=nv, nv_perp=nv - 1)
            st = CollisionStencil(g)
            fm = maxwellian(g, 1.0, 1.0, 0.0)
            err = st.assemble(co).apply(fm[None])[0] - fm
            errs.append(np.abs(err).max() / fm.max())
        assert errs[1] < errs[0] / 2.5
        assert errs[2] < errs[1] / 2.5

    def test_drifting_equilibrium_without_pitch(self, small_grid, small_stencil):
        """With eta = 0 the drifting Maxwellian is a discrete
        near-equilibrium too."""
        co = uniform_coeffs(1, vt2=0.9, u_par=0.4, eta=0.0)
        m = small_stencil.assemble(co)
        fm = maxwellian(small_grid, 1.0, 0.9, 0.4)
        err = m.apply(fm[None])[0] - fm
        assert np.abs(err).max() / fm.max() < 2e-2

    def test_not_symmetric(self, small_stencil):
        """Paper: 'The matrices are not numerically symmetric'."""
        m = small_stencil.assemble(uniform_coeffs(u_par=0.2))
        dense = m.entry_dense(0)
        assert not np.allclose(dense, dense.T)

    def test_identity_at_zero_dt_limit(self, small_stencil):
        co = uniform_coeffs(1, dt=1e-300)
        dense = small_stencil.assemble(co).entry_dense(0)
        np.testing.assert_allclose(dense, np.eye(dense.shape[0]), atol=1e-290)

    def test_eigenvalues_cluster_near_one_for_weak_collisions(
        self, small_grid, small_stencil
    ):
        """Fig. 2 ion behaviour: small dt*nu -> spectrum hugs 1.0."""
        co = uniform_coeffs(1, nu=1e-3, dt=0.05)
        ev = np.linalg.eigvals(small_stencil.assemble(co).entry_dense(0))
        assert ev.real.min() > 0.99
        assert ev.real.max() < 1.5

    def test_eigenvalues_spread_for_strong_collisions(
        self, small_grid, small_stencil
    ):
        """Fig. 2 electron behaviour: larger dt*nu -> wider real spread,
        still in the right half plane (well conditioned)."""
        co = uniform_coeffs(1, nu=1.0, dt=0.05)
        ev = np.linalg.eigvals(small_stencil.assemble(co).entry_dense(0))
        assert ev.real.min() > 0.5
        assert ev.real.max() > 3.0


class TestAssemblyMechanics:
    def test_gemm_assembly_is_affine_in_coefficients(self, small_stencil):
        """M(c1 + c2 deviation) decomposes per template — spot-check that
        doubling dt*nu doubles (M - I)."""
        c1 = uniform_coeffs(1, nu=1.0, dt=0.1)
        c2 = uniform_coeffs(1, nu=2.0, dt=0.1)
        m1 = small_stencil.assemble(c1).entry_dense(0)
        m2 = small_stencil.assemble(c2).entry_dense(0)
        eye = np.eye(m1.shape[0])
        np.testing.assert_allclose(m2 - eye, 2.0 * (m1 - eye), rtol=1e-12)

    def test_batch_values_differ_pattern_shared(self, small_stencil):
        co = CollisionCoefficients(
            nu=np.array([1.0, 2.0]),
            vt2=np.array([1.0, 1.5]),
            u_par=np.array([0.0, 0.3]),
            eta=np.array([0.3, 0.3]),
            dt=np.array([0.1, 0.1]),
        )
        m = small_stencil.assemble(co)
        assert m.num_batch == 2
        assert not np.allclose(m.values[0], m.values[1])

    def test_ell_assembly_matches_csr(self, small_stencil):
        co = uniform_coeffs(2, u_par=0.1)
        csr = small_stencil.assemble(co)
        ell = small_stencil.assemble_ell(co)
        for k in range(2):
            np.testing.assert_allclose(
                ell.entry_dense(k), csr.entry_dense(k), atol=1e-14
            )

    def test_dia_assembly_matches_csr(self, small_stencil):
        """The direct band-layout GEMM path must equal scattering the CSR
        assembly into DIA — same template algebra, different layout."""
        co = uniform_coeffs(2, u_par=0.1)
        csr = small_stencil.assemble(co)
        dia = small_stencil.assemble_dia(co)
        via_convert = to_format(csr, "dia")
        np.testing.assert_array_equal(dia.offsets, via_convert.offsets)
        np.testing.assert_array_equal(dia.values, via_convert.values)

    def test_dia_assembly_paper_pattern(self, paper_stencil):
        """Nine constant diagonals on the 32x31 grid, small fringe."""
        dia = paper_stencil.assemble_dia(uniform_coeffs())
        assert dia.num_diags == 9
        assert dia.stored_per_system == 9 * 992
        assert dia.padding_fraction() < 0.05

    def test_dia_templates_cached(self, small_stencil):
        m1 = small_stencil.assemble_dia(uniform_coeffs(1, nu=1.0))
        m2 = small_stencil.assemble_dia(uniform_coeffs(1, nu=2.0))
        assert m1.offsets is m2.offsets  # shared, built once per grid

    def test_ell_padding_small(self, paper_stencil):
        """Paper: 'very little padding necessary (only for the boundary
        points of the grid)'."""
        ell = paper_stencil.assemble_ell(uniform_coeffs())
        assert ell.max_nnz_row == 9
        assert ell.padding_fraction() < 0.05

    def test_reusable_across_species(self, small_stencil):
        """One stencil serves every coefficient bundle (same pattern)."""
        m1 = small_stencil.assemble(uniform_coeffs(1, nu=1.0))
        m2 = small_stencil.assemble(uniform_coeffs(1, nu=1e-2))
        assert m1.col_idxs is m2.col_idxs  # literally shared arrays

    def test_tiny_grid_edge_case(self):
        """A 2x2 grid must assemble without index errors."""
        g = VelocityGrid(nv_par=2, nv_perp=2)
        st = CollisionStencil(g)
        m = st.assemble(uniform_coeffs())
        assert m.num_rows == 4
        vol = g.cell_volumes()
        resid = vol @ (m.entry_dense(0) - np.eye(4))
        assert np.abs(resid).max() < 1e-13


class TestAssemblyBlocks:
    """Assembly runs in row blocks that OpenBLAS runs on the calling
    thread; the values must not change by a bit."""

    @staticmethod
    def varied_coeffs(num_batch):
        rng = np.random.default_rng(num_batch)
        return CollisionCoefficients(
            nu=rng.uniform(0.5, 2.0, num_batch),
            vt2=rng.uniform(0.5, 2.0, num_batch),
            u_par=rng.normal(0.0, 0.3, num_batch),
            eta=rng.uniform(0.1, 0.5, num_batch),
            dt=np.full(num_batch, 0.1),
        )

    @staticmethod
    def assembler(stencil, fmt):
        return {
            "csr": stencil.assemble,
            "ell": stencil.assemble_ell,
            "dia": stencil.assemble_dia,
        }[fmt]

    @pytest.mark.parametrize("num_batch", [1, 2, 5, 6, 7, 16, 240])
    @pytest.mark.parametrize("fmt", ["csr", "ell", "dia"])
    def test_blocks_equal_one_matmul(self, paper_stencil, fmt, num_batch, monkeypatch):
        """Bit-equal to one ``np.matmul`` of the whole batch, for CSR of
        the ELL templates converted to CSR (one CSR GEMM of a large batch
        rounds its last two columns differently, see
        ``CollisionStencil._assemble``); every block is under the
        single-thread cut-off and, from two systems on, has at least two
        rows (a one-row product runs as GEMV)."""
        co = self.varied_coeffs(num_batch)
        templates = paper_stencil._template_batch("ell" if fmt == "csr" else fmt)
        ref = np.matmul(
            paper_stencil._coefficient_matrix(co),
            templates.values.reshape(5, -1),
        ).reshape((num_batch,) + templates.values.shape[1:])
        ref = to_format(templates.with_values(ref), fmt).values.reshape(num_batch, -1)
        blocks = []
        real = np.matmul

        def spy(a, b, out=None):
            blocks.append((a.shape[0], a.shape[0] * a.shape[1] * b.shape[1]))
            return real(a, b, out=out)

        monkeypatch.setattr(np, "matmul", spy)
        got = self.assembler(paper_stencil, fmt)(co).values.reshape(num_batch, -1)
        monkeypatch.undo()
        np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))
        rows = [r for r, _ in blocks]
        assert sum(rows) == num_batch
        assert all(mnk <= GEMM_SERIAL_MNK for _, mnk in blocks)
        if num_batch >= 2:
            assert min(rows) >= 2
        if num_batch == 240:
            # 5 x 8928 ELL/DIA and 5 x 8554 CSR template columns per row.
            assert rows == ([6] * 40 if fmt == "csr" else [5] * 48)

    @pytest.mark.parametrize("fmt", ["csr", "ell", "dia"])
    def test_values_do_not_depend_on_the_batch(self, paper_stencil, fmt):
        """Each pair of systems of a 240-system assembly, assembled alone,
        gets the same bits."""
        co = self.varied_coeffs(240)
        assemble = self.assembler(paper_stencil, fmt)
        whole = assemble(co).values
        for lo in range(0, 240, 2):
            pair = CollisionCoefficients(
                nu=co.nu[lo:lo + 2], vt2=co.vt2[lo:lo + 2],
                u_par=co.u_par[lo:lo + 2], eta=co.eta[lo:lo + 2],
                dt=co.dt[lo:lo + 2],
            )
            np.testing.assert_array_equal(
                assemble(pair).values.view(np.uint64),
                whole[lo:lo + 2].view(np.uint64),
            )

    @pytest.mark.parametrize("row_mnk", [1, 44640, 87381, 100_000, 200_000, 10**6])
    def test_row_blocks_cover_the_batch(self, row_mnk):
        """Contiguous, balanced (sizes differ by at most one), at least two
        rows from two systems on, and under the cut-off whenever three
        rows fit under it."""
        for num_batch in range(1, 60):
            blocks = _gemm_row_blocks(num_batch, row_mnk)
            assert blocks[0][0] == 0 and blocks[-1][1] == num_batch
            assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
            sizes = [hi - lo for lo, hi in blocks]
            assert max(sizes) - min(sizes) <= 1
            if num_batch >= 2:
                assert min(sizes) >= 2
            if 3 * row_mnk <= GEMM_SERIAL_MNK:
                assert max(sizes) * row_mnk <= GEMM_SERIAL_MNK
