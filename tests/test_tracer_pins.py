"""The benchmark tracer (perfbench/tracer.py) wraps package functions by name.
A rename in the package that breaks one of those names fails here, in the
package's own suite, and not only in the benchmark's."""

import importlib.util
import sys
from pathlib import Path

import pytest

import hqclab.cli  # noqa: F401  (imports every hqclab module)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    if not TRACER.is_file():
        pytest.skip("perfbench/tracer.py is absent")
    spec = importlib.util.spec_from_file_location("hqclab_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves_and_unwraps(tracer):
    spans = tracer.Tracer()
    try:
        spans.install()   # a target that no longer resolves raises here
        for key, module, path, _ in tracer.TARGETS:
            owner, attr = tracer._resolve(sys.modules[f"hqclab.{module}"], path)
            assert getattr(owner.__dict__[attr], tracer.MARK, None) == key, path
    finally:
        spans.uninstall()
    assert tracer.wrapped_bindings() == []
