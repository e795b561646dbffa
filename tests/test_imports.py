"""Every name a gkmchar module imports is read somewhere in that module,
and every private module-level name is read somewhere in the package.

The package's __init__.py imports names to export them, so the import scan
leaves it out.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gkmchar"
SOURCES = sorted(SRC.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


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


def _unread_privates(sources):
    """The module-level _names (def, class or assignment) of sources that
    no other top-level statement of any of them reads, as a name or as an
    attribute, as (source index, line, name)."""
    defined, reads = [], []
    for i, source in enumerate(sources):
        for node in ast.parse(source).body:
            reads.append({n.id for n in ast.walk(node)
                          if isinstance(n, ast.Name)
                          and isinstance(n.ctx, ast.Load)}
                         | {n.attr for n in ast.walk(node)
                            if isinstance(n, ast.Attribute)})
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(i, node.lineno, name, len(reads) - 1)
                        for name in names
                        if name[:1] == "_" and name[:2] != "__"]
    return sorted((i, line, name) for i, line, name, own in defined
                  if not any(name in r for j, r in enumerate(reads)
                             if j != own))


def test_the_scan_finds_an_unread_import():
    source = "from os import path, sep\nimport math\nprint(sep, math.pi)\n"
    assert _unread_imports(source) == [(1, "path")]


def test_the_scan_finds_an_unread_private_name():
    # _dead reads only itself and _Gone nothing reads; _CONST is read as
    # an attribute in the other source
    sources = ["def _used():\n    return 1\n"
               "def _dead():\n    return _dead()\n"
               "_CONST: int = 1\nclass _Gone:\n    pass\n"
               "public = _used()\n",
               "import a\nprint(a._CONST)\n"]
    assert _unread_privates(sources) == [(0, 3, "_dead"), (0, 6, "_Gone")]


def test_the_modules_are_found():
    assert {"characters.py", "graphs.py", "lattice.py"} <= \
        {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    assert _unread_imports(path.read_text()) == []


def test_every_private_module_name_is_read():
    sources = [p.read_text() for p in SOURCES]
    assert [(SOURCES[i].name, line, name)
            for i, line, name in _unread_privates(sources)] == []
