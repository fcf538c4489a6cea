"""Every name a loophier module imports is used there or re-exported.

The package __init__ exists to re-export, so it is not scanned; any other
module re-exports a name by listing it in __all__.
"""

import ast
from pathlib import Path

import pytest

import loophier

MODULES = sorted(p for p in Path(loophier.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.asname or alias.name


def exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    dead = set(imported(tree)) - used - exported(tree)
    assert not dead, f"{path.name} imports unused {sorted(dead)}"
