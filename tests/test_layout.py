"""The package's runtime dependencies: the standard library and numpy only.

Every top-level import in src/ct_forge must be relative (the package
itself), a standard-library module, or numpy.  Imports inside functions
are not checked.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ct_forge"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


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


def test_sources_found():
    assert (SRC / "__init__.py").is_file()
