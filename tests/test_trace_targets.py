"""The end-to-end benchmark's tracer still finds every callable it rebinds.

``benchmarks/e2e/trace.py`` rebinds a fixed list of callables through each
owner's own ``__dict__`` (a class) or attribute (a module).  Moving one of
them to a base class or another module, or renaming it, breaks the traced
benchmark run, which the tier-1 suite does not otherwise execute.  The file
shadows the standard library's ``trace``, so it is loaded by path under a
module name of its own.
"""

import importlib.util
from pathlib import Path

TRACE_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "trace.py"

#: 24 named callables plus the 14 BLAS-1 names that ``base``, ``bicgstab``
#: and ``pipelined_bicgstab`` bind (the tracer skips names a module lacks).
NUM_TARGETS = 38


def load_tracer():
    spec = importlib.util.spec_from_file_location("e2e_trace", TRACE_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    tracer = load_tracer()
    targets = tracer.targets()
    missing = []
    for owner, attr, *_ in targets:
        try:
            found = tracer._original(owner, attr)
        except (AttributeError, KeyError):
            missing.append(f"{owner.__name__}.{attr}")
        else:
            if not callable(found):
                missing.append(f"{owner.__name__}.{attr} (not callable)")
    assert missing == []
    assert len(targets) == NUM_TARGETS
