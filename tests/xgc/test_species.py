"""Tests for plasma species definitions."""

import pytest

from repro.xgc import DEUTERON, ELECTRON, SPECIES_BY_NAME, Species


class TestSpecies:
    def test_electron_normalisation(self):
        assert ELECTRON.mass == 1.0
        assert ELECTRON.charge == -1.0

    def test_deuteron_mass_ratio(self):
        assert DEUTERON.mass == pytest.approx(3671.0)
        assert DEUTERON.charge == 1.0

    def test_lookup_table(self):
        assert SPECIES_BY_NAME["electron"] is ELECTRON
        assert SPECIES_BY_NAME["deuteron"] is DEUTERON

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            Species(name="", mass=1.0, charge=0.0)
        with pytest.raises(ValueError):
            Species(name="x", mass=0.0, charge=0.0)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ELECTRON.mass = 2.0
