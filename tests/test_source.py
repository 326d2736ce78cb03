"""Static checks on the package source that no installed linter makes."""

import ast
import collections
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "stieltjes"


def unused_imports(source: str) -> list:
    """Names bound by import statements that the module never reads.

    A name counts as read when it appears as a Name node (attribute bases
    included) or as a string in a module-level __all__.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {e.value for e in node.value.elts}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    src = ("from __future__ import annotations\n"
           "import os, sys\n"
           "from typing import Optional as Opt, Callable\n"
           "__all__ = ['Callable']\n"
           "print(sys.argv)\n")
    assert unused_imports(src) == [(2, "os"), (3, "Opt")]


def unreferenced_definitions(sources: dict) -> list:
    """Module-level functions and classes that no module references.

    sources maps module names to their text.  A reference is a Name, an
    Attribute (``series.riemann_zeta_em``), an imported name or a string
    in a module-level __all__, in any module and outside the definition's
    own body, so a function that only calls itself counts as unused.
    """
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    refs = collections.defaultdict(list)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs[node.id].append(node)
            elif isinstance(node, ast.Attribute):
                refs[node.attr].append(node)
            elif isinstance(node, ast.alias):
                refs[node.name.split(".")[-1]].append(node)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                for e in node.value.elts:
                    refs[e.value].append(e)
    unused = []
    for mod, tree in sorted(trees.items()):
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            inside = {id(n) for n in ast.walk(node)}
            if all(id(r) in inside for r in refs[node.name]):
                unused.append((mod, node.name))
    return unused


def test_every_definition_is_referenced():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_definitions(sources) == []


def test_unreferenced_definition_is_reported():
    sources = {
        "a": ("def used():\n    return 1\n"
              "def _dead(m):\n    return [0, 1] * m\n"
              "def _recursive(n):\n    return _recursive(n - 1)\n"
              "class Exported:\n    pass\n"
              "__all__ = ['Exported']\n"),
        "b": "from .a import used\nprint(used())\n",
    }
    assert unreferenced_definitions(sources) == [("a", "_dead"),
                                                 ("a", "_recursive")]
