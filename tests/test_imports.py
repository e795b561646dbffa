"""Every name a gkmchar module imports is read somewhere in that module.

The package's __init__.py imports names to export them, so it is left out.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gkmchar"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unread_imports(source):
    """The names an import binds in source that no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_the_scan_finds_an_unread_import():
    source = "from os import path, sep\nimport math\nprint(sep, math.pi)\n"
    assert _unread_imports(source) == [(1, "path")]


def test_the_modules_are_found():
    assert {"characters.py", "graphs.py", "lattice.py"} <= \
        {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    assert _unread_imports(path.read_text()) == []
