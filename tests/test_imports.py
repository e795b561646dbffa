"""Every name a gkmchar module imports is read somewhere in that module,
every private module-level name is read somewhere in the package, and
every public name is read by the package, bench/ or demos/.

The package's __init__.py imports names to export them, so the import and
public-name scans leave it out.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gkmchar"
SOURCES = sorted(SRC.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
READERS = sorted(ROOT.glob("bench/*.py")) + sorted(ROOT.glob("demos/*.py"))

# the library's documented API and fixtures, which no code of its own reads
LIBRARY_API = {"action_violations", "graph_to_data", "flag_fixtures",
               "random_restriction"}


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


def _reads(tree):
    """How often each name is read in tree as a name, and as an
    attribute."""
    return (Counter(n.id for n in ast.walk(tree)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)),
            Counter(n.attr for n in ast.walk(tree)
                    if isinstance(n, ast.Attribute)))


def _unread_publics(sources, others):
    """The public module-level names of sources (def, class or
    assignment), and the public methods of their classes, that no code of
    sources or others reads outside the name's own definition, as
    (source index, line, name), a method named Class.method.  A
    module-level name counts as read as a name or as an attribute, a
    method only as an attribute."""
    trees = [ast.parse(source) for source in sources]
    names, attrs = Counter(), Counter()
    for tree in trees + [ast.parse(source) for source in others]:
        tree_names, tree_attrs = _reads(tree)
        names += tree_names
        attrs += tree_attrs
    out = []
    for i, tree in enumerate(trees):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                defined = []
            own_names, own_attrs = _reads(node)
            out += [(i, node.lineno, name) for name in defined
                    if name[:1] != "_" and names[name] + attrs[name]
                    == own_names[name] + own_attrs[name]]
            if isinstance(node, ast.ClassDef):
                out += [(i, f.lineno, f"{node.name}.{f.name}")
                        for f in node.body
                        if isinstance(f, ast.FunctionDef)
                        and f.name[:1] != "_"
                        and attrs[f.name] == _reads(f)[1][f.name]]
    return sorted(out)


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


def test_the_scan_finds_an_unread_public_name():
    # dead reads only itself; Box.get is read only in its own body, and
    # as a bare name elsewhere, which does not read a method; CONST and
    # Box.put are read as attributes in the other source
    sources = ["def used():\n    return 1\n"
               "def dead():\n    return dead()\n"
               "class Box:\n"
               "    def get(self):\n        return self.get()\n"
               "    def put(self):\n        return 1\n"
               "CONST: int = used()\n"]
    others = ["import m\nprint(m.CONST, m.Box().put, get)\n"]
    assert _unread_publics(sources, others) == [(0, 3, "dead"),
                                                (0, 6, "Box.get")]


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


def test_every_public_name_is_read():
    found = [(MODULES[i].name, line, name) for i, line, name in
             _unread_publics([p.read_text() for p in MODULES],
                             [p.read_text() for p in READERS])]
    assert [f for f in found if f[2] not in LIBRARY_API] == []
    # a name of the list that code comes to read leaves the list
    assert {name for _, _, name in found} == LIBRARY_API
