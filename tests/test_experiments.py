"""Tests for the programmatic experiment generators."""

import numpy as np

from repro.experiments import (
    ALL_EXPERIMENTS,
    ExperimentResult,
    fig1,
    fig2,
    fig4,
    run_all,
    table1,
    table3,
)


class TestIndividualGenerators:
    def test_fig1_summary_bands(self):
        r = fig1(num_systems=500)
        assert isinstance(r, ExperimentResult)
        assert 40 <= r.data["cpu"]["cpu_percent"] <= 56
        assert "Fig 1" in r.text

    def test_fig2_spectra(self):
        r = fig2()
        assert r.data["ion"].real_spread < 3
        assert r.data["electron"].real_spread > 10

    def test_fig4_pattern(self):
        r = fig4()
        assert r.data["nnz_histogram"][9] == 870
        st = r.data["storage_bytes"]
        assert st["csr"] < st["dense"] / 50
        assert st["ell"] < st["dense"] / 50

    def test_table1_catalog(self):
        r = table1()
        assert r.data["A100"]["tflops"] == 9.7
        assert r.data["V100"]["bw"] == 990.0
        assert r.data["MI100"]["cus"] == 120

    def test_table3_shape(self):
        r = table3()
        e, ion = r.data["electron"], r.data["ion"]
        assert len(e) == 5
        assert e[-1] < e[0]
        assert np.all(ion <= e)

    def test_registry_is_complete(self):
        expected = {"fig1", "fig2", "fig4", "fig6", "fig7", "fig8", "fig9",
                    "table1", "table2", "table3", "motivation_dense",
                    "ablation_blockdiag", "related_tridiag", "ablation_shmem",
                    "ablation_tuning", "tolerance_study"}
        assert set(ALL_EXPERIMENTS) == expected


class TestRunAll:
    def test_writes_all_artifacts(self, tmp_path):
        results = run_all(str(tmp_path))
        assert set(results) == set(ALL_EXPERIMENTS)
        for name in ALL_EXPERIMENTS:
            path = tmp_path / f"{name}.txt"
            assert path.is_file()
            assert path.read_text().strip()

    def test_results_are_consistent_across_calls(self):
        """The generators are deterministic (seeded workload, cached
        measured solves)."""
        a = fig4()
        b = fig4()
        assert a.text == b.text
