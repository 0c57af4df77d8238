"""Layout rules for src/ct_forge.

Every top-level import must be relative (the package itself), a
standard-library module, or numpy; imports inside functions are not
checked.  Every public top-level function and class must be used by the
package itself, not only by tests.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ct_forge"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}
# Public names the package need not call itself.
UNCALLED_OK = {
    "contour_ct",  # criterion 9 samples the origin torus through it; goes with ROADMAP item 4
}


def _top_level_imports(path: Path):
    """(line, module) for each absolute import at the top of a module."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_or_relative(path):
    foreign = [f"{path.name}:{line} imports {module}"
               for line, module in _top_level_imports(path)
               if module.split(".")[0] not in ALLOWED]
    assert not foreign, foreign


def test_every_public_name_is_used_in_the_package():
    modules = [ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    defined = {node.name for tree in modules for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    used = set()
    for tree in modules:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(defined - used - UNCALLED_OK) == []


def test_sources_found():
    assert (SRC / "__init__.py").is_file()
