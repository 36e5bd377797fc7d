"""Static checks on the package source: every imported name is used."""

import ast
from pathlib import Path

import pytest

import saddlekit

MODULES = sorted(p for p in Path(saddlekit.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")  # __init__ only re-exports


def unused_imports(source):
    """Names bound by the imports of ``source`` that nothing else reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_detected():
    src = "import os\nimport numpy as np\nfrom math import pi, tau\nnp.sqrt(pi)\n"
    assert unused_imports(src) == [(1, "os"), (3, "tau")]
