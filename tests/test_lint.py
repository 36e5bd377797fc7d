"""Static checks on the package source: every imported name is used,
every module-level definition is referenced somewhere, scipy.io is loaded
only by the Matrix Market functions, SuperLU's ``splu`` is called only in
``dense``, and every name the README gives as `module.name` exists."""

import ast
import dataclasses
import importlib
import re
from collections import Counter
from pathlib import Path

import pytest

import saddlekit
from saddlekit import precond

PACKAGE = Path(saddlekit.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py")
                 if p.name != "__init__.py")  # __init__ only re-exports
ROOT = Path(__file__).resolve().parents[1]
# where a definition of the package may be referenced
READERS = sorted([*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py"),
                  *(ROOT / "perfbench").glob("*.py")])


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


def top_level_imports(source):
    """Dotted names of the modules and names imported by the top-level
    statements of ``source``."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            names |= {node.module, *(f"{node.module}.{alias.name}"
                                     for alias in node.names)}
    return names


def test_no_module_level_scipy_io_import():
    """A process that touches no .mtx file does not load scipy.io."""
    eager = [p.name for p in PACKAGE.glob("*.py")
             if any(name == "scipy.io" or name.startswith("scipy.io.")
                    for name in top_level_imports(p.read_text()))]
    assert eager == []
    assert top_level_imports("from scipy import io\nimport numpy.linalg\n"
                             "def f():\n    import os\n") == {
        "scipy", "scipy.io", "numpy.linalg"}


def splu_calls(source):
    """Line numbers of the calls to ``splu`` in ``source``, by bare name or
    as an attribute."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(
                func, "attr", None)
            if name == "splu":
                lines.append(node.lineno)
    return sorted(lines)


def test_splu_is_called_only_in_dense():
    """Every SuperLU ordering and failure mapping lives in one module."""
    calls = {p.name: splu_calls(p.read_text()) for p in MODULES}
    assert calls.pop("dense.py") and not any(calls.values())


def test_splu_call_detected():
    src = ("import scipy.sparse.linalg as spla\n"
           "from scipy.sparse.linalg import splu\n"
           "lu = spla.splu(M)\nsplu(M, permc_spec='NATURAL')\n"
           "spla.spsolve(M, b)\n")
    assert splu_calls(src) == [3, 4]


def references(tree):
    """Count of each name a tree reads: a loaded name, an attribute, an
    imported name, or a string that is exactly the name (``getattr``,
    ``monkeypatch.setattr``)."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.split(".")[-1]] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            names[node.value] += 1
    return names


def dead_definitions(modules, readers):
    """(module, name) of each module-level function, class or assigned name
    in ``modules`` ({name: source}) that no source in ``readers`` (a list
    that includes the modules) references outside its own definition."""
    seen = Counter()
    for source in readers:
        seen.update(references(ast.parse(source)))
    dead = []
    for module, source in modules.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            own = references(node)
            dead += [(module, name) for name in names
                     if not name.startswith("__")
                     and seen[name] - own[name] == 0]
    return sorted(dead)


def test_no_dead_definitions():
    modules = {p.name: p.read_text() for p in MODULES}
    assert dead_definitions(modules, [p.read_text() for p in READERS]) == []


def test_dead_definition_detected():
    mod = ("LIMIT = 5\nUNUSED = 6\n\n\ndef used():\n    return LIMIT\n\n\n"
           "def recursive(k):\n    return recursive(k - 1)\n\n\n"
           "class Gone:\n    pass\n")
    reader = "from m import used\nused()\n"
    assert dead_definitions({"m.py": mod}, [mod, reader]) == [
        ("m.py", "Gone"), ("m.py", "UNUSED"), ("m.py", "recursive")]


def test_readme_names_resolve():
    """Each backticked `module.name` in README.md whose module is one of the
    package's is an attribute of ``saddlekit.<module>``, and each backticked
    `P.name` an attribute or field of a built preconditioner."""
    readme = (ROOT / "README.md").read_text()
    modules = {p.stem for p in MODULES}
    refs = [(mod, name) for mod, name in re.findall(r"`(\w+)\.(\w+)`", readme)
            if mod in modules]
    stale = [f"{mod}.{name}" for mod, name in refs
             if not hasattr(importlib.import_module(f"saddlekit.{mod}"), name)]
    built = (precond.GssPreconditioner, precond.BdPreconditioner)
    p_names = re.findall(r"`P\.(\w+)", readme)
    stale += [f"P.{name}" for name in p_names if not any(
        hasattr(cls, name) or name in {f.name for f in dataclasses.fields(cls)}
        for cls in built)]
    assert refs and p_names and stale == []
