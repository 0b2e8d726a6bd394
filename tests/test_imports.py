"""Every package module other than ``__init__.py`` uses each name it imports."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hqclab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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


def test_the_check_sees_an_unused_import():
    source = "from __future__ import annotations\nimport numpy as np\nfrom os import path, sep\nx = sep\n"
    assert unused_imports(source) == ["np (line 2)", "path (line 3)"]


@pytest.mark.parametrize("module", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_used(module):
    assert unused_imports(module.read_text()) == []
