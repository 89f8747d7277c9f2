"""The package runs on the standard library alone: `dependencies = []` stays.

Every module under src/specseq imports only standard-library modules,
itself, or its own modules by relative import.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "specseq"


def imported_top_levels(tree: ast.AST) -> set[str]:
    """The top-level names of the absolute imports in a module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_src_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    outside = {
        path.name: sorted(
            name
            for name in imported_top_levels(ast.parse(path.read_text(), str(path)))
            if name not in sys.stdlib_module_names and name != "specseq"
        )
        for path in files
    }
    assert {name: mods for name, mods in outside.items() if mods} == {}
