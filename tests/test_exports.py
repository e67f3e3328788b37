"""Every public export of every package resolves and is listed once."""

import collections
import importlib

import pytest

PACKAGES = (
    "repro",
    "repro.core",
    "repro.core.solvers",
    "repro.gpu",
    "repro.xgc",
    "repro.dist",
    "repro.utils",
    "repro.service",
    "repro.experiments",
)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves_once(package):
    """A name left in ``__all__`` (or in ``repro.utils``' lazy
    ``_LOCATIONS`` table) after its code is deleted fails here."""
    module = importlib.import_module(package)
    exported = list(module.__all__)
    twice = [n for n, k in collections.Counter(exported).items() if k > 1]
    assert not twice, f"{package}.__all__ lists {twice} more than once"
    names = exported + list(getattr(module, "_LOCATIONS", ()))
    missing = [n for n in names if not hasattr(module, n)]
    assert not missing, f"{package} does not resolve {missing}"
