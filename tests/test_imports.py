"""Every package module other than ``__init__.py`` uses each name it imports,
and the package defines no top-level function or class, and no method of
such a class, that nothing reads."""

import ast
import importlib.util
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hqclab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TRACER = PACKAGE.parent.parent / "perfbench" / "tracer.py"


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of ``source`` that no expression reads;
    ``from __future__`` imports bind nothing."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def unused_definitions(sources: dict[str, str], exported: set[str]) -> list[str]:
    """Top-level functions and classes of the modules ``sources`` (module name
    -> source) whose name no expression of any module reads, as a name or as
    an attribute, and that are not ``exported``."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [(module, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{module}.{name}" for module, name in defined if name not in read | exported]


def unused_methods(sources: dict[str, str], pinned: set[str]) -> list[str]:
    """Non-dunder methods of the top-level classes of ``sources`` whose name no
    expression of any module reads as an attribute (a local variable of that
    name does not count) and no string constant names (as in
    ``getattr(law, "scalar_hess")``), and that are not ``pinned`` as
    ``module.Class.method``."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [f"{module}.{cls.name}.{node.name}" for cls in tree.body if isinstance(cls, ast.ClassDef)
                    for node in cls.body if isinstance(node, ast.FunctionDef)
                    and not (node.name.startswith("__") and node.name.endswith("__"))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return [name for name in defined if name.rsplit(".", 1)[1] not in read and name not in pinned]


def tracer_pins() -> set[str]:
    """The ``module.Class.method`` (or ``module.function``) of every entry of
    perfbench/tracer.py ``TARGETS``, loaded as tests/test_tracer_pins.py does."""
    if not TRACER.is_file():
        pytest.skip("perfbench/tracer.py is absent")
    spec = importlib.util.spec_from_file_location("hqclab_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {f"{owner}.{path}" for _, owner, path, _ in module.TARGETS}


def exported_names() -> set[str]:
    """The ``__all__`` of the package's ``__init__.py``."""
    for node in ast.parse((PACKAGE / "__init__.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    raise AssertionError("the package __init__ defines no __all__")


def test_the_check_sees_an_unused_import():
    source = "from __future__ import annotations\nimport numpy as np\nfrom os import path, sep\nx = sep\n"
    assert unused_imports(source) == ["np (line 2)", "path (line 3)"]


@pytest.mark.parametrize("module", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_used(module):
    assert unused_imports(module.read_text()) == []


def test_the_check_sees_an_unused_definition():
    sources = {"a": "def f():\n    return g()\n\ndef g():\n    pass\n\nclass C:\n    def h(self):\n        pass\n",
               "b": "from .a import f\n\ndef k():\n    return f.__name__\n\ndef unread():\n    pass\n"}
    assert unused_definitions(sources, {"k"}) == ["a.C", "b.unread"]


def test_every_top_level_definition_is_read_or_exported():
    sources = {p.stem: p.read_text() for p in MODULES}
    assert unused_definitions(sources, exported_names()) == []


def test_the_check_sees_an_unused_method():
    sources = {"a": "class C:\n    def __init__(self):\n        self.f()\n\n    def f(self):\n        pass\n\n"
                    "    def g(self):\n        pass\n\n    def h(self):\n        pass\n\n"
                    "    def k(self):\n        pass\n",
               "b": "def read(c, k):\n    c.k = k\n    return getattr(c, 'g')\n"}
    assert unused_methods(sources, {"a.C.h"}) == ["a.C.k"]


def test_every_method_is_read_named_or_pinned():
    sources = {p.stem: p.read_text() for p in MODULES}
    assert unused_methods(sources, tracer_pins()) == []
