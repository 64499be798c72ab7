"""API hygiene, read from the source with ast: no stale import, export or private name."""

import ast
from pathlib import Path

import pytest

import trimobius

_PACKAGE = Path(trimobius.__file__).parent
_MODULES = sorted(_PACKAGE.glob("*.py"))
# import numpy as _numpy in __init__ loads numpy with one OpenBLAS thread;
# the name itself is never read
_SIDE_EFFECT_IMPORTS = {("__init__", "_numpy")}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds in the module -> the line of that import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def _dunder_all(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    tree = _tree(path)
    loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    loaded |= set(_dunder_all(tree))
    unused = {
        name: line for name, line in _imported(tree).items()
        if name not in loaded and (path.stem, name) not in _SIDE_EFFECT_IMPORTS
    }
    assert not unused, f"{path.name}: imported but never used: {unused}"


def test_all_is_exactly_the_reexports():
    tree = _tree(_PACKAGE / "__init__.py")
    reexported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    }
    assert len(trimobius.__all__) == len(set(trimobius.__all__))
    assert set(trimobius.__all__) == reexported
    for name in trimobius.__all__:
        assert hasattr(trimobius, name), name


def test_only_poset_reads_the_table_arrays():
    # the predecessor table hands out its runs; no other module slices its CSR
    readers = [
        f"{path.name}:{node.lineno}"
        for path in _MODULES
        if path.stem != "poset"
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Attribute) and node.attr in ("indptr", "indices")
    ]
    assert not readers, f"table arrays read outside poset.py: {readers}"


def _runs() -> ast.FunctionDef:
    """The definition of PredecessorTable.runs."""
    (runs,) = [
        node
        for cls in _tree(_PACKAGE / "poset.py").body
        if isinstance(cls, ast.ClassDef) and cls.name == "PredecessorTable"
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name == "runs"
    ]
    return runs


def test_runs_takes_no_argument():
    # the run cap has one value, _RUN_CAP, which runs() reads itself
    params = _runs().args
    assert [a.arg for a in params.posonlyargs + params.args] == ["self"]
    assert not (params.vararg or params.kwonlyargs or params.kwarg)


def test_only_runs_reads_the_run_cap():
    # the cap cuts runs and nothing else: no pointer type or bound reads it
    def reads(tree):
        return [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "_RUN_CAP"
            and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute) and node.attr == "_RUN_CAP"
            or isinstance(node, ast.ImportFrom) and "_RUN_CAP" in (a.name for a in node.names)
        ]

    inside = reads(_runs())
    assert inside
    outside = {path.name: reads(_tree(path)) for path in _MODULES}
    outside["poset.py"] = sorted(set(outside["poset.py"]) - set(inside))
    assert not any(outside.values()), f"_RUN_CAP read outside runs(): {outside}"


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each private name the module defines at its top level, or in the body
    of a top-level class -> its line: functions, classes and constants."""
    names = {}
    bodies = [tree.body] + [n.body for n in tree.body if isinstance(n, ast.ClassDef)]
    for node in (node for body in bodies for node in body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.endswith("__"):
                names[name] = node.lineno
    return names


def test_every_private_name_is_read():
    trees = {path.stem: _tree(path) for path in _MODULES}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = {
        f"{stem}.py:{line}": name
        for stem, tree in trees.items()
        for name, line in _private_definitions(tree).items()
        if name not in read
    }
    assert not unread, f"private names defined but never read: {unread}"
