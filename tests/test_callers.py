"""Every function, method and class the package defines has a caller: its
name is referenced (an AST ``Name``, ``Attribute`` or import alias) in the
package outside ``__init__.py``, in ``scripts/`` or in ``perfbench/``.
Tests do not count, and neither do dunder methods, which Python calls."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pflab"


def _parse(paths):
    return [(path, ast.parse(path.read_text(), filename=str(path))) for path in paths]


def test_every_definition_has_a_caller():
    package = _parse(sorted(SRC.glob("*.py")))
    callers = [tree for path, tree in package if path.name != "__init__.py"]
    callers += [tree for _, tree in _parse(sorted((ROOT / "scripts").rglob("*.py"))
                                           + sorted((ROOT / "perfbench").rglob("*.py")))]
    referenced = set()
    for tree in callers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.update(node.name.split("."))
    unused = [f"{path.name}:{node.lineno} {node.name}"
              for path, tree in package for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and not (node.name.startswith("__") and node.name.endswith("__"))
              and node.name not in referenced]
    assert unused == []
