"""Shared utilities: banded storage, spectra, fault injection, validation.

Submodules are loaded lazily (PEP 562): :mod:`repro.core` formats import
:mod:`repro.utils.validation` while :mod:`repro.utils.banded` imports the
formats back, so an eager package ``__init__`` would be circular.
"""

import importlib

__all__ = [
    "BatchBanded",
    "Bandwidths",
    "csr_to_banded",
    "detect_bandwidths",
    "SpectrumSummary",
    "batch_eigenvalues",
    "condition_number",
    "summarize_spectrum",
    "FaultSpec",
    "FaultInjector",
]

_LOCATIONS = {
    "BatchBanded": "banded",
    "Bandwidths": "banded",
    "csr_to_banded": "banded",
    "detect_bandwidths": "banded",
    "FaultSpec": "fault_injection",
    "FaultInjector": "fault_injection",
    "SpectrumSummary": "eigen",
    "batch_eigenvalues": "eigen",
    "condition_number": "eigen",
    "summarize_spectrum": "eigen",
}


def __getattr__(name: str):
    try:
        module = _LOCATIONS[name]
    except KeyError:
        raise AttributeError(f"module 'repro.utils' has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
