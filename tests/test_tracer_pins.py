"""The benchmark tracer (perfbench/tracer.py) wraps package functions by name,
and perfbench/test_perfbench.py lists the bindings copied by ``from ...
import`` that it must also patch.  A rename in the package that breaks one of
those names fails here, in the package's own suite, and not only in the
benchmark's."""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

import hqclab.cli  # imports every hqclab module

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"
BENCH_TESTS = PERFBENCH / "test_perfbench.py"


@pytest.fixture(scope="module")
def tracer():
    if not TRACER.is_file():
        pytest.skip("perfbench/tracer.py is absent")
    spec = importlib.util.spec_from_file_location("hqclab_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def imported_by_name() -> list[str]:
    """``IMPORTED_BY_NAME`` of perfbench/test_perfbench.py, read from its source
    without importing the benchmark."""
    if not BENCH_TESTS.is_file():
        pytest.skip("perfbench/test_perfbench.py is absent")
    for node in ast.parse(BENCH_TESTS.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "IMPORTED_BY_NAME"
                                                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/test_perfbench.py defines no IMPORTED_BY_NAME")


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


def test_every_binding_imported_by_name_resolves():
    names = imported_by_name()
    assert names
    for dotted in names:
        module, name = dotted.rsplit(".", 1)
        value = getattr(sys.modules[module], name, None)
        assert callable(value) and value.__module__.startswith("hqclab."), dotted


def test_traced_study_writes_the_plain_csv_and_counts_its_domains(tracer, tmp_path):
    # the tracer's counter hooks read the placement's result: a traced run must
    # still write the same rows and see one sampling domain per element and
    # operator (two operators per row, 8 + 32 elements per n_rep)
    cfg = tmp_path / "s.cfg"
    cfg.write_text("n = 16\nseed = 3\nh_list = 1/2,1/4\nn_rep_list = 4,16\nfit_range = 0:2\n")
    plain, traced = tmp_path / "plain.csv", tmp_path / "traced.csv"
    assert hqclab.cli.main(["stochastic-2d", "--config", str(cfg), "--out", str(plain)]) == 0
    spans = tracer.Tracer()
    try:
        spans.install()
        assert hqclab.cli.main(["stochastic-2d", "--config", str(cfg), "--out", str(traced)]) == 0
    finally:
        spans.uninstall()
    assert traced.read_bytes() == plain.read_bytes()
    assert spans.counts["hqc.place.domains"] == 160
