"""Tests for the batched preconditioners."""

import numpy as np
import pytest

from repro.core import (
    BatchCsr,
    IdentityPreconditioner,
    InvalidFormatError,
    JacobiPreconditioner,
    make_preconditioner,
)


class TestIdentity:
    def test_apply_copies(self, rng):
        p = IdentityPreconditioner().generate(None)
        r = rng.standard_normal((3, 5))
        z = p.apply(r)
        np.testing.assert_array_equal(z, r)
        assert z is not r

    def test_apply_out(self, rng):
        p = IdentityPreconditioner()
        r = rng.standard_normal((3, 5))
        out = np.empty_like(r)
        assert p.apply(r, out=out) is out


class TestJacobi:
    def test_apply_divides_by_diagonal(self, csr_batch, rng):
        p = JacobiPreconditioner().generate(csr_batch)
        r = rng.standard_normal((csr_batch.num_batch, csr_batch.num_rows))
        z = p.apply(r)
        np.testing.assert_allclose(z, r / csr_batch.diagonal(), rtol=1e-13)

    def test_exact_for_diagonal_matrix(self, rng):
        nb, n = 3, 6
        d = rng.random((nb, n)) + 1.0
        dense = np.einsum("bi,ij->bij", d, np.eye(n))
        m = BatchCsr.from_dense(dense)
        p = JacobiPreconditioner().generate(m)
        b = rng.standard_normal((nb, n))
        # M^-1 b solves the diagonal system exactly.
        np.testing.assert_allclose(m.apply(p.apply(b)), b, rtol=1e-12)

    def test_zero_diagonal_rejected(self):
        dense = np.array([[[0.0, 1.0], [1.0, 1.0]]])
        with pytest.raises(InvalidFormatError, match="zero diagonal"):
            JacobiPreconditioner().generate(BatchCsr.from_dense(dense))

    def test_apply_before_generate_raises(self):
        with pytest.raises(RuntimeError):
            JacobiPreconditioner().apply(np.zeros((1, 2)))

    def test_works_with_ell(self, ell_batch, rng):
        p = JacobiPreconditioner().generate(ell_batch)
        r = rng.standard_normal((ell_batch.num_batch, ell_batch.num_rows))
        np.testing.assert_allclose(p.apply(r), r / ell_batch.diagonal())


class TestFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("identity", IdentityPreconditioner),
            ("none", IdentityPreconditioner),
            ("jacobi", JacobiPreconditioner),
        ],
    )
    def test_known_names(self, name, cls):
        assert isinstance(make_preconditioner(name), cls)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown preconditioner"):
            make_preconditioner("amg")
