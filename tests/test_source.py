"""Static checks on the package source that no installed linter makes."""

import ast
import collections
import pathlib

import pytest

from stieltjes.precision import ENGINES

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


def _sets(call, arg, index) -> bool:
    """Whether a call sets parameter arg, at positional index (None for
    keyword-only), by name or by position; *args and **kwargs set all."""
    if any(k.arg in (arg, None) for k in call.keywords):
        return True
    return index is not None and (
        len(call.args) > index
        or any(isinstance(a, ast.Starred) for a in call.args))


def unset_defaults(sources: dict) -> list:
    """Keyword defaults of module-level functions and methods that no call
    in any module sets, by name or by position.

    sources maps module names to their text.  A call reaches a definition
    through its name: ``f(...)``, ``mod.f(...)``, ``obj.method(...)``,
    and ``Class(...)`` for ``__init__``; a method's calls skip its first
    parameter unless it is a staticmethod.  Nested functions and lambdas
    are not checked: their defaults bind loop variables (``n=n``).
    Returns (module, function, parameter) triples.
    """
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    calls = collections.defaultdict(list)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                calls[getattr(f, "id", getattr(f, "attr", None))].append(node)
    unset = []
    for mod, tree in sorted(trees.items()):
        defs = [(fn, fn.name, 0) for fn in tree.body
                if isinstance(fn, ast.FunctionDef)]
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef):
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in fn.decorator_list)
                    name = cls.name if fn.name == "__init__" else fn.name
                    defs.append((fn, name, 0 if static else 1))
        for fn, name, skip in defs:
            a = fn.args
            pos = a.posonlyargs + a.args
            first = len(pos) - len(a.defaults)
            params = [(p.arg, i - skip)
                      for i, p in enumerate(pos[first:], first)]
            params += [(p.arg, None)
                       for p, d in zip(a.kwonlyargs, a.kw_defaults)
                       if d is not None]
            unset += [(mod, fn.name, arg) for arg, index in params
                      if not any(_sets(c, arg, index) for c in calls[name])]
    return unset


#: Defaults that no call in the package sets, each with its reason.
UNSET_ALLOWED = {
    ("cli", "main", "argv"):
        "the entry point: the console script calls main() with no "
        "argument and it reads sys.argv",
    ("quadrature", "integrate_bose", "oscillatory"):
        "the kernel route is the tests' reference for the direct route; "
        "no library route takes it",
}


def test_every_default_is_set_by_a_call():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert sorted(set(unset_defaults(sources)) - set(UNSET_ALLOWED)) == []
    assert set(UNSET_ALLOWED) <= set(unset_defaults(sources))


def test_unset_default_is_reported():
    sources = {
        "a": ("def f(x, n=4, *, k=1, j=2):\n    return x\n"
              "def g(x, m=0, n=1):\n    return x\n"
              "class C:\n"
              "    def __init__(self, u=0):\n        pass\n"
              "    def step(self, h=1, d=2):\n        return h\n"
              "    @staticmethod\n"
              "    def make(v=0):\n        return v\n"
              "def outer():\n"
              "    return [lambda i=i: i for i in range(3)]\n"),
        "b": ("from .a import f, g, C\n"
              "f(1, 5, j=3)\n"
              "g(*[1, 2, 3])\n"
              "C(2).step(3)\n"
              "C.make(1)\n"),
    }
    assert unset_defaults(sources) == [("a", "f", "k"), ("a", "step", "d")]


def _strings(node) -> list:
    """The string constants an expression can take: a constant, or either
    branch of a conditional; [] for anything computed."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.IfExp):
        return _strings(node.body) + _strings(node.orelse)
    return []


def tallied_names(source: str) -> tuple:
    """(keys, engines): the tally keys a module's tally(...) calls name,
    as keywords or as constant keys of a ``**{...}`` dict, and the engine
    strings its _rule(...) and _tallied(...) calls pass first.  Keys
    computed from an engine string (``engine + "_nodes"``) are the
    engine's, checked where the string is passed."""
    keys, engines = [], []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        if name == "tally":
            for k in node.keywords:
                if k.arg is not None:
                    keys.append(k.arg)
                elif isinstance(k.value, ast.Dict):
                    keys += [s for key in k.value.keys for s in _strings(key)]
        elif name in ("_rule", "_tallied") and node.args:
            engines += _strings(node.args[0])
    return keys, engines


#: Tally keys that name no engine, each with what it counts.
NON_ENGINE_KEYS = {
    "stop_small": "_sum_terms: the terms fell below the tolerance",
    "stop_floor": "_sum_terms: the terms grew past their smallest",
    "stop_cap": "_sum_terms: the caller's terms ran out",
    "table_nodes_built": "quadrature: the table nodes a call had to build",
    "kernel_values_built": "binet_kernel: the kernel values it evaluated",
    "kernel_terms": "the per-node series kernels: the terms they summed",
    "recurrence_steps": "series._up: the steps u -> u + 1 a route took",
}


def test_every_tally_names_an_engine():
    keys, engines = [], []
    for p in sorted(SRC.glob("*.py")):
        k, e = tallied_names(p.read_text())
        keys += k
        engines += e
    prefixes = tuple(e + "_" for e in ENGINES)
    assert sorted({k for k in keys if not k.startswith(prefixes)}
                  - set(NON_ENGINE_KEYS)) == []
    assert sorted(set(engines) - set(ENGINES)) == []
    assert set(NON_ENGINE_KEYS) <= set(keys)
    # and every engine is produced somewhere, so none names a dead route
    produced = {e for e in ENGINES
                if e in engines or any(k.startswith(e + "_") for k in keys)}
    assert sorted(set(ENGINES) - produced) == []


def test_tallied_names_are_read():
    src = ("tally(em_terms=3, stop_cap=1)\n"
           "tally(**{'stop_small' if t else 'stop_floor': 1})\n"
           "tally(**{engine + '_nodes': 1}, table_nodes_built=2)\n"
           "tally(**rec)\n"
           "_rule('laplace', 'ed0inf', ctx, f)\n"
           "quadrature._tallied('unit_square', res, 0)\n"
           "_tallied(engine, res, 0)\n")
    assert tallied_names(src) == (
        ["em_terms", "stop_cap", "stop_small", "stop_floor",
         "table_nodes_built"],
        ["laplace", "unit_square"])
