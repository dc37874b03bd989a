"""Every function, method and class the package defines has a caller: its
name is referenced (an AST ``Name``, ``Attribute`` or import alias) in the
package outside ``__init__.py``, in ``scripts/`` or in ``perfbench/``.
Tests do not count, and neither do dunder methods, which Python calls.

Every field of a dataclass the package defines is read: as an AST
``Attribute`` in Load context, or by ``getattr`` with the name as a
constant, in the package, ``scripts/``, ``perfbench/`` or the tests."""

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


def _is_dataclass(node):
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def test_every_dataclass_field_is_read():
    package = _parse(sorted(SRC.glob("*.py")))
    readers = package + _parse(sorted((ROOT / "scripts").rglob("*.py"))
                               + sorted((ROOT / "perfbench").rglob("*.py"))
                               + sorted((ROOT / "tests").rglob("*.py")))
    read = set()
    for _, tree in readers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "getattr" and len(node.args) >= 2
                  and isinstance(node.args[1], ast.Constant)):
                read.add(node.args[1].value)
    unread = [f"{path.name}:{field.lineno} {node.name}.{field.target.id}"
              for path, tree in package for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef) and _is_dataclass(node)
              for field in node.body
              if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
              and field.target.id not in read]
    assert unread == []
