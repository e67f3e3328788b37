"""Tests for the ``python -m repro`` command-line interface."""

import re

import pytest

from repro.__main__ import main
from repro.xgc import PICARD_SOLVERS, PicardOptions


class TestCli:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro" in out
        assert "V100" in out and "A100" in out and "MI100" in out
        assert "38 used for dgbsv" in out

    def test_demo_small(self, capsys):
        assert main(["demo", "--nodes", "1", "--batch", "240"]) == 0
        out = capsys.readouterr().out
        assert "converged=True" in out
        assert "Skylake" in out
        assert "ELL format" in out  # the demo prices the paper's format

    def test_picard_small(self, capsys):
        assert main(["picard", "--nodes", "1", "--steps", "1"]) == 0
        out = capsys.readouterr().out
        assert "electron" in out
        assert "conservation drifts" in out

    @pytest.mark.parametrize("solver", PICARD_SOLVERS)
    def test_picard_every_solver(self, capsys, solver):
        """``--solver`` offers exactly the solvers ``PicardOptions``
        accepts, and each one runs a step."""
        assert main(["picard", "--nodes", "1", "--steps", "1",
                     "--solver", solver]) == 0
        assert "conservation drifts" in capsys.readouterr().out

    def test_picard_format_defaults_to_picard_options(self, capsys):
        with pytest.raises(SystemExit):
            main(["picard", "--help"])
        assert f"(default: {PicardOptions.matrix_format})" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags", [[], ["--naive"], ["--ranks", "6"], ["--traffic", "bursty"]]
    )
    def test_serve(self, capsys, flags):
        """Every request is accounted for: completed or shed."""
        assert main(["serve", "--duration", "2e-3", *flags]) == 0
        out = capsys.readouterr().out
        match = re.search(r"submitted (\d+), completed (\d+) .* shed (\d+)",
                          out)
        submitted, completed, shed = map(int, match.groups())
        assert submitted > 0
        assert submitted == completed + shed

    def test_demo_dia_format(self, capsys):
        assert main(["demo", "--nodes", "1", "--batch", "240",
                     "--format", "dia"]) == 0
        out = capsys.readouterr().out
        assert "converged=True" in out

    def test_picard_dia_format(self, capsys):
        assert main(["picard", "--nodes", "1", "--steps", "1",
                     "--format", "dia"]) == 0
        out = capsys.readouterr().out
        assert "conservation drifts" in out

    def test_tune(self, capsys):
        """The pattern-aware tuner upgrades the stencil to gather-free DIA."""
        assert main(["tune"]) == 0
        out = capsys.readouterr().out
        assert "format=dia" in out
        assert "fused" in out

    def test_reproduce_writes_every_artefact(self, capsys, tmp_path):
        from repro.experiments import ALL_EXPERIMENTS

        assert main(["reproduce", "--quiet", "--out", str(tmp_path)]) == 0
        assert f"wrote {len(ALL_EXPERIMENTS)} artefacts" in \
            capsys.readouterr().out
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            f"{name}.txt" for name in ALL_EXPERIMENTS
        )
        for name in ALL_EXPERIMENTS:
            assert (tmp_path / f"{name}.txt").read_text().strip(), name

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_no_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])
