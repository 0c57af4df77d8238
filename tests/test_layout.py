"""Layout rules for src/ct_forge.

Every top-level import must be relative (the package itself), a
standard-library module, or numpy.  No import, at any depth, names a
concurrency module: the package runs in one thread of one process.  cli
imports no underscore name from another package module, and contour builds
no polynomial.  Every public top-level function and class, and every public
method of a public class, must be used by the package itself, not only by
tests; a method counts as used when the package reads its name.  No module
reads an environment variable: limits are constants or arguments.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ct_forge"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}
CONCURRENCY = {"asyncio", "concurrent", "multiprocessing", "threading"}
MODULES = [ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
PUBLIC_CLASSES = [node for tree in MODULES for node in tree.body
                  if isinstance(node, ast.ClassDef) and not node.name.startswith("_")]
PUBLIC_METHODS = [f"{cls.name}.{node.name}" for cls in PUBLIC_CLASSES for node in cls.body
                  if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
# Every name the package loads, or reads as an attribute.
USED = {node.id if isinstance(node, ast.Name) else node.attr
        for tree in MODULES for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _imports(nodes):
    """(line, module) for each absolute import among nodes."""
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_or_relative(path):
    foreign = [f"{path.name}:{line} imports {module}"
               for line, module in _imports(_tree(path).body)
               if module.split(".")[0] not in ALLOWED]
    assert not foreign, foreign


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_concurrency_module_is_imported(path):
    concurrent = [f"{path.name}:{line} imports {module}"
                  for line, module in _imports(ast.walk(_tree(path)))
                  if module.split(".")[0] in CONCURRENCY]
    assert not concurrent, concurrent


def test_cli_imports_no_private_name():
    private = [f"cli.py:{node.lineno} imports {alias.name}"
               for node in ast.walk(_tree(SRC / "cli.py"))
               if isinstance(node, ast.ImportFrom) and node.level > 0
               for alias in node.names if alias.name.startswith("_")]
    assert not private, private


def test_contour_builds_no_polynomial():
    """contour samples the factored rationals identities builds: it calls
    no attribute of Poly or FactoredRational, such as Poly.var or
    FactoredRational.create."""
    calls = [f"contour.py:{node.lineno} calls {node.func.value.id}.{node.func.attr}"
             for node in ast.walk(_tree(SRC / "contour.py"))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and isinstance(node.func.value, ast.Name)
             and node.func.value.id in {"Poly", "FactoredRational"}]
    assert not calls, calls


def test_every_public_name_is_used_in_the_package():
    defined = {node.name for tree in MODULES for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    assert sorted(defined - USED) == []


@pytest.mark.parametrize("method", PUBLIC_METHODS)
def test_every_public_method_is_used_in_the_package(method):
    assert method.split(".")[1] in USED


def test_no_environment_variable_is_read():
    reads = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"))
             or (isinstance(node, ast.ImportFrom) and node.module == "os"
                 and {"environ", "getenv"} & {alias.name for alias in node.names})]
    assert reads == []


def test_sources_found():
    assert (SRC / "__init__.py").is_file()
    assert PUBLIC_METHODS
