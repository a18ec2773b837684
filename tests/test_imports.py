"""Every imported name is read somewhere in its module: an `ast` scan of
each `.py` file under src/, tests/ and perfbench/. `from __future__`
imports and the re-exports of an `__init__.py` are exempt, and a name a
module lists in `__all__` or quotes in an annotation counts as read."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "perfbench")


def imported_names(tree: ast.Module):
    """(name bound, line) for each import in the tree, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, alias.lineno


def read_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
        annotations = [getattr(node, "annotation", None), getattr(node, "returns", None)]
        for note in annotations:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                names |= read_names(ast.parse(note.value, mode="eval"))
    return names


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    read = read_names(tree)
    rel = path.relative_to(ROOT)
    return [f"{rel}:{line}: {name}" for name, line in imported_names(tree) if name not in read]


def test_every_imported_name_is_read():
    files = [p for top in SCANNED for p in sorted((ROOT / top).rglob("*.py"))
             if p.name != "__init__.py"]
    assert len(files) > 20
    unused = [hit for path in files for hit in unused_imports(path)]
    assert not unused, "imported but never read:\n" + "\n".join(unused)


def test_scan_sees_an_unused_import():
    tree = ast.parse("import os\nimport os.path as osp\nfrom typing import Any, Dict, List\n"
                     "__all__ = ['Dict', 'f']\n"
                     "def f(x: 'Any') -> int:\n    return osp.sep\n")
    read = read_names(tree)
    assert [(n, line) for n, line in imported_names(tree) if n not in read] == [
        ("os", 1), ("List", 3)]
