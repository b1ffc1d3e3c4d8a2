"""No dead private code: every module-level private name of the package is used in it.

A private name (``_name``, not a dunder) that a module binds by ``def``, ``class``
or assignment must be read somewhere in ``src/``: as a name, an attribute, or an
import.  So must a public name of the shared helper modules (``errors.py``,
``jsonio.py``) that ``cascadekit.__all__`` does not export, in a module other than
its own.  A helper left behind when its last caller goes fails here, and so does
an import left behind: every name a module of the package imports (``__init__.py``
aside, which imports to export) must be read in that module.
"""

import ast
from collections import Counter
from pathlib import Path

import cascadekit

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "cascadekit"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _bound_at_module_level(tree: ast.Module):
    """The private names a module's top-level statements bind."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def _reads(tree: ast.AST):
    """Every name a tree reads: loaded names, attributes and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def _trees(root: Path):
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(root.rglob("*.py"))}


def test_every_private_module_name_is_used():
    trees = _trees(SRC)
    reads = Counter(name for tree in trees.values() for name in _reads(tree))
    unused = [
        f"{path.relative_to(SRC)}: {name}"
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for name in dict.fromkeys(_bound_at_module_level(tree))
        if _private(name) and not reads[name]
    ]
    assert unused == []


HELPER_MODULES = ("errors.py", "jsonio.py")


def test_every_unexported_helper_is_read_by_another_module():
    trees = _trees(SRC)
    unread = []
    for name in HELPER_MODULES:
        path = PACKAGE / name
        reads = {read for other, tree in trees.items() if other != path for read in _reads(tree)}
        unread += [
            f"{name}: {helper}"
            for helper in dict.fromkeys(_bound_at_module_level(trees[path]))
            if not helper.startswith("_") and helper not in cascadekit.__all__ and helper not in reads
        ]
    assert unread == []


def _imported(tree: ast.Module):
    """The names a module's imports bind (``from __future__`` imports aside)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def _unread_imports(tree: ast.Module) -> list[str]:
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in _imported(tree) if name not in loaded]


def test_every_imported_name_is_read_in_its_module():
    unread = [
        f"{path.relative_to(SRC)}: {name}"
        for path, tree in _trees(PACKAGE).items()
        if path.name != "__init__.py"
        for name in _unread_imports(tree)
    ]
    assert unread == []


def test_the_check_sees_an_unused_import_and_a_used_one():
    tree = ast.parse(
        "from __future__ import annotations\nimport os.path\nimport sys\n"
        "from .errors import real, string as text\n\ndef f(x: real):\n    return sys.argv\n"
    )
    assert list(_imported(tree)) == ["os", "sys", "real", "text"]
    assert _unread_imports(tree) == ["os", "text"]


def test_the_check_sees_an_unused_helper_and_a_used_one():
    tree = ast.parse("def _dead():\n    pass\n\ndef _live():\n    pass\n\n_X, _Y = 1, _live()\n")
    assert list(_bound_at_module_level(tree)) == ["_dead", "_live", "_X", "_Y"]
    reads = Counter(_reads(tree))
    assert [name for name in ("_dead", "_live", "_X", "_Y") if not reads[name]] == ["_dead", "_X", "_Y"]
