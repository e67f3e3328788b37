"""Batch matrix formats: storage footprints and SpMV performance.

Compares BatchDense / BatchCsr / BatchEll / BatchDia on the XGC matrices —
the Fig. 3 storage accounting plus real host-kernel SpMV timings (our
NumPy ELL kernel beats the CSR one for the same reason the GPU kernel
does: regular layout, no per-row reduction; the gather-free DIA kernel
beats both because the 9-point stencil needs no column indices at all).

Run:  python examples/format_comparison.py
"""

import time

import numpy as np

from repro.core import to_format
from repro.xgc import CollisionProxyApp, PicardOptions, ProxyAppConfig


def time_spmv(matrix, x, repeats=20):
    out = np.empty((matrix.num_batch, matrix.num_rows))
    matrix.apply(x, out=out)  # warm up
    t0 = time.perf_counter()
    for _ in range(repeats):
        matrix.apply(x, out=out)
    return (time.perf_counter() - t0) / repeats


def main():
    app = CollisionProxyApp(ProxyAppConfig(
        num_mesh_nodes=16, picard=PicardOptions(matrix_format="ell"),
    ))
    ell, f = app.build_matrices()
    csr = to_format(ell, "csr")
    dia = app.stencil.assemble_dia(
        # Same coefficients as the built matrix: assemble from the state.
        # (build_matrices returned the ELL layout of the same values.)
        _coeffs_of(app, f)
    )
    dense = to_format(csr, "dense")

    print(f"batch: {csr.num_batch} systems of {csr.num_rows}x{csr.num_cols}, "
          f"{csr.nnz_per_system} nnz each\n")

    print("storage (Fig. 3 accounting):")
    for m in (dense, csr, ell, dia):
        mb = m.storage_bytes() / 1e6
        print(f"  {type(m).__name__:<11} {mb:10.2f} MB")
    print(f"  ELL padding: {100 * ell.padding_fraction():.1f}% "
          "(only the boundary rows)")
    print(f"  DIA padding: {100 * dia.padding_fraction():.1f}% "
          f"({dia.num_diags} diagonals, fringe + boundary holes)")

    print("\nhost SpMV timings (this library's NumPy kernels):")
    times = {}
    for m in (dense, csr, ell, dia):
        times[m.format_name] = time_spmv(m, f)
        print(f"  {type(m).__name__:<11} {times[m.format_name] * 1e3:8.3f} ms")
    print(f"  ELL speedup over CSR: {times['csr'] / times['ell']:.2f}x")
    print(f"  DIA speedup over ELL: {times['ell'] / times['dia']:.2f}x")

    # Cross-check: all four produce identical products.
    ref = dense.apply(f)
    assert np.allclose(csr.apply(f), ref)
    assert np.allclose(ell.apply(f), ref)
    assert np.allclose(dia.apply(f), ref)
    print("\nall formats agree on A @ x (checked).")


def _coeffs_of(app, f):
    """The Picard-frozen coefficients at state ``f`` (as assemble uses)."""
    from repro.xgc.collision import linearized_coefficients_masses

    return linearized_coefficients_masses(
        app.config.grid, app.stepper.masses, f, dt=app.config.dt,
        nu_ref=app.config.nu_ref, eta=app.config.eta,
        kurtosis_gamma=app.config.kurtosis_gamma,
    )


if __name__ == "__main__":
    main()
