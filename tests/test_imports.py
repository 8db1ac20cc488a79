"""Source hygiene: no module under ``src/rrmsim`` imports a name it never uses.

The check reads each module's syntax tree only. A name bound by an import
counts as used if it is read as a name anywhere in the module, annotations
included. The package root is exempt: its imports are the entry points it
re-exports.
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
