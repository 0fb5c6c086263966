"""The e2e benchmark's span tracer still finds every method it wraps.

``benchmarks/e2e/tracer.py`` patches the layer boundaries by looking each
method up in its owner's ``__dict__``, so a refactor that moves or renames
one breaks the benchmark pipeline, not the library.  Installing and
removing the wrappers here makes that a tier-1 failure instead.
"""

import importlib.util
import pathlib

_TRACER = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "tracer.py"
_spec = importlib.util.spec_from_file_location("e2e_tracer", _TRACER)
tracer_module = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer_module)


def test_tracer_installs_and_uninstalls_on_this_tree():
    tracer = tracer_module.StackTracer()
    tracer.install()
    try:
        patched = list(tracer.patched)
        assert patched
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} left patched"
