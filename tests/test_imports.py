"""Source hygiene: no module under ``src/rrmsim`` imports a name it never
uses, or defines a private name that nothing reads, and config kinds are
judged in one place.

The checks read each module's syntax tree only. A name bound by an import
counts as used if it is read as a name anywhere in the module, annotations
included. The package root is exempt: its imports are the entry points it
re-exports. A private name (``_x``, not a dunder) bound at module or class
level counts as read if the module reads it as a name, as an attribute or as
a string: the engine's stages are named by string in ``STAGE_ORDER``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "rrmsim"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def stranded_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name an import binds that the module never reads."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    out.append((node.lineno, name))
    return sorted(out)


def _bound_names(body) -> list[tuple[int, str]]:
    """(line, name) of each name a module or class body binds, nested
    classes' bodies included."""
    out = []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            out += _bound_names(node.body)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            leaves = (n for t in targets for n in ast.walk(t))
            out += [(n.lineno, n.id) for n in leaves if isinstance(n, ast.Name)]
    return out


def stranded_private_names(source: str) -> list[tuple[int, str]]:
    """(line, name) of each private name bound at module or class level that
    the module never reads as a name, an attribute or a string."""
    tree = ast.parse(source)
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return sorted(
        (line, name) for line, name in _bound_names(tree.body)
        if name.startswith("_") and not name.endswith("__") and name not in read
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert stranded_imports(path.read_text()) == []


def test_the_check_finds_a_stranded_import():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from itertools import chain\n"
        "from typing import Mapping\n"
        "def f(x: Mapping[str, int]) -> int:\n"
        "    return np.sum(x)\n"
    )
    assert stranded_imports(source) == [(3, "chain")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_keeps_a_private_name_it_never_reads(path):
    assert stranded_private_names(path.read_text()) == []


def test_the_check_finds_a_stranded_private_name():
    source = (
        "__version__ = '1'\n"
        "_LIMIT = 3\n"
        "_UNUSED: int = 4\n"
        "STAGES = ('_step',)\n"
        "def _helper(x):\n"
        "    return x + _LIMIT\n"
        "def _orphan():\n"
        "    return _helper(1)\n"
        "class A:\n"
        "    _kept = 1\n"
        "    _dropped = 2\n"
        "    def _step(self):\n"
        "        return self._kept\n"
    )
    assert stranded_private_names(source) == [(3, "_UNUSED"), (7, "_orphan"), (11, "_dropped")]


def callers(source: str, name: str) -> list[str]:
    """The dotted scope (``Class.method``, ``function``, or "" at module level)
    of each call of ``name``, plain or as an attribute (``core.name``)."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call) and name in (getattr(child.func, "id", None),
                                                        getattr(child.func, "attr", None)):
                out.append(scope)
            visit(child, scope)

    visit(ast.parse(source), "")
    return out


def test_only_the_config_base_judges_kinds():
    # every config type is checked by core.Config: kinds, then its rules()
    found = [(p.stem, scope) for p in sorted(SRC.glob("*.py"))
             for scope in callers(p.read_text(), "check_kinds")]
    assert found == [("core", "Config.__post_init__")]


def test_the_check_finds_every_caller():
    source = (
        "x = check_kinds(1)\n"
        "def f():\n"
        "    return [core.check_kinds(y) for y in ()]\n"
        "class A:\n"
        "    def g(self):\n"
        "        check_rules(self)\n"
        "        check_kinds(self)\n"
    )
    assert callers(source, "check_kinds") == ["", "f", "A.g"]
