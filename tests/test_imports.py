"""Every imported name is read somewhere in its module: an `ast` scan of
each `.py` file under src/, tests/ and perfbench/. `from __future__`
imports and the re-exports of an `__init__.py` are exempt, and a name a
module lists in `__all__` or quotes in an annotation counts as read.

Every module-level function and class in src/, and every method of such
a class other than a dunder, is read as a name or an attribute somewhere
in src/ outside its own definition; `KEPT_FOR_CALLERS_OUTSIDE_SRC` lists
the exceptions."""

import ast
from collections import Counter
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


# definitions src/ never reads, each with the reason it stays
KEPT_FOR_CALLERS_OUTSIDE_SRC = {
    "write_ppm": "the test fixtures write their images with it; read_ppm is its inverse",
    "fnv1a_64": "perfbench/tracing.py wraps it by name; no checkpoint version reads it now",
    "MultimodalNerModel.predict": "perfbench and the tests call it; the CLI goes through decode",
}


def names_read(node: ast.AST) -> Counter:
    """How often each name is loaded and each attribute named under node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute)
                   or isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store))


def definitions(tree: ast.Module):
    """(name, node) for each module-level def or class and each non-dunder
    method of such a class, the method named f"{class}.{method}"."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{f.name}", f) for f in node.body
                        if isinstance(f, ast.FunctionDef) and not f.name.startswith("__"))


def unread_definitions(modules: dict[str, ast.Module]) -> list[str]:
    """f"{module}:{line}: {name}" for each definition whose name no code
    outside that definition reads."""
    reads = sum((names_read(tree) for tree in modules.values()), Counter())
    return [f"{label}:{node.lineno}: {name}"
            for label, tree in modules.items() for name, node in definitions(tree)
            if reads[node.name] == names_read(node)[node.name]]


def test_every_src_definition_is_read_in_src():
    modules = {str(p.relative_to(ROOT)): ast.parse(p.read_text(encoding="utf-8"))
               for p in sorted((ROOT / "src").rglob("*.py"))}
    unread = [hit for hit in unread_definitions(modules)
              if hit.rsplit(": ", 1)[1] not in KEPT_FOR_CALLERS_OUTSIDE_SRC]
    assert not unread, "defined in src/ but never read there:\n" + "\n".join(unread)


def test_scan_sees_an_unread_definition():
    modules = {
        "a.py": ast.parse("def used():\n    return 1\n\ndef recursive(n):\n"
                          "    return recursive(n - 1)\n\nclass Unused:\n    pass\n"),
        "b.py": ast.parse("import a\nx = a.used()\n"),
    }
    assert unread_definitions(modules) == ["a.py:4: recursive", "a.py:7: Unused"]


def test_scan_sees_an_unread_method():
    modules = {"a.py": ast.parse(
        "class Block:\n"
        "    def __init__(self):\n        self.w = self.draw()\n"
        "    def draw(self):\n        return 0\n"
        "    def stale(self):\n        return self.stale()\n"
        "    def listed(self):\n        return {}\n"
        "\nx = Block().listed()\n")}
    assert unread_definitions(modules) == ["a.py:6: Block.stale"]
