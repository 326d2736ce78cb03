"""Static checks on the package source that no installed linter makes."""

import ast
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
