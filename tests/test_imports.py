"""The package's imports run one way: every import sits at the top of its
module, no module takes a private name from another, and the modules
import each other without a cycle (fock <- model <- spectra <- bounds <- cli)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pflab"
MODULES = {path.stem: ast.parse(path.read_text(), filename=str(path))
           for path in sorted(SRC.glob("*.py"))}


def _package_imports(tree: ast.AST):
    """(line, module, imported names) of every import of a package module in
    ``tree``, at any depth; ``from . import x`` imports module x."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("pflab"):
                continue
            target = (node.module or "").removeprefix("pflab").lstrip(".")
            if target:
                yield node.lineno, target, [a.name for a in node.names]
            else:
                for alias in node.names:
                    yield node.lineno, alias.name if alias.name in MODULES else "__init__", []
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("pflab."):
                    yield node.lineno, alias.name.removeprefix("pflab."), []


def test_the_package_has_modules():
    assert {"fock", "model", "spectra", "bounds", "cli"} <= set(MODULES)


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_import_inside_a_function(name):
    nested = [f"{name}.py:{node.lineno}"
              for fn in ast.walk(MODULES[name])
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
              for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_private_name_is_imported_from_another_module(name):
    private = [f"{name}.py:{line} {target}.{imported}"
               for line, target, names in _package_imports(MODULES[name])
               for imported in names if imported.startswith("_")]
    assert private == []


def test_package_imports_are_acyclic():
    graph = {name: {target for _, target, _ in _package_imports(tree)}
             for name, tree in MODULES.items()}
    assert all(target in MODULES for targets in graph.values() for target in targets)
    done: set[str] = set()

    def visit(name: str, path: tuple[str, ...]) -> None:
        assert name not in path, "import cycle: " + " -> ".join((*path, name))
        if name not in done:
            for target in sorted(graph[name]):
                visit(target, (*path, name))
            done.add(name)

    for name in sorted(graph):
        visit(name, ())
