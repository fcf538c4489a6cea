"""Every name a loophier module or a test file imports is used there or
re-exported, and every name a loophier module exports is defined.

The package __init__ exists to re-export, so it is not scanned for unused
imports; any other module re-exports a name by listing it in __all__.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import loophier

MODULES = sorted(p for p in Path(loophier.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
TESTS = sorted(Path(__file__).parent.glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES + TESTS, ids=[
    p.stem for p in MODULES] + [f"tests/{p.stem}" for p in TESTS])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    dead = set(imported(tree)) - used - exported(tree)
    assert not dead, f"{path.name} imports unused {sorted(dead)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_export_is_defined(path):
    module = importlib.import_module(f"loophier.{path.stem}")
    missing = exported(ast.parse(path.read_text())) - set(vars(module))
    assert not missing, f"{path.name} exports undefined {sorted(missing)}"


def test_package_imports_public_names():
    # each name the package re-exports, eagerly or on first use, is defined
    # in its module and, where the module declares __all__, listed there
    init = Path(loophier.__file__)
    names = [(node.module, alias.name)
             for node in ast.parse(init.read_text()).body
             if isinstance(node, ast.ImportFrom) and node.level
             for alias in node.names]
    names += [("miura", name) for name in loophier._MIURA]
    for module_name, name in names:
        module = importlib.import_module(f"loophier.{module_name}")
        public = getattr(module, "__all__", vars(module))
        assert name in vars(module), f"{module_name}.{name}"
        assert name in public, f"{module_name}.{name}"
        assert getattr(loophier, name) is vars(module)[name]


def fresh(code):
    """Run code in a new interpreter that imports loophier from this
    checkout; the test fails when it raises."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(loophier.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_miura_is_imported_on_first_use():
    fresh("""
import sys
import loophier
assert "loophier.miura" not in sys.modules
from loophier import MiuraMap
from loophier import miura
assert "loophier.miura" in sys.modules
assert MiuraMap is miura.MiuraMap and loophier.miura is miura
try:
    loophier.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("an unknown name resolved")
""")


def test_import_leaves_the_kernel_caches_empty():
    # the benchmark refuses a warm kernel-row cache, and a user's first
    # commutator builds its rows and kernels as needed
    fresh("""
import loophier
assert loophier.brackets._ROW_CACHE == {}
assert loophier.brackets._KERNELS == {}
""")


# the engine computes on integer coefficient triples; rationals of rat.Q
# enter only through coeffs.as_coeff and leave through coeffs.to_pair
HOT_PATH = ["functionals", "recursion", "fourier", "ansatz", "miura"]


def imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield f"{node.module or ''}.{alias.name}"


@pytest.mark.parametrize("name", HOT_PATH)
def test_hot_path_imports_no_rationals(name):
    path = Path(loophier.__file__).parent / f"{name}.py"
    for module in imported_modules(ast.parse(path.read_text())):
        assert not {"rat", "fractions"} & set(module.split(".")), \
            f"{name}.py imports {module}"


# the layout of a term key is ring's alone, as a coefficient triple is
# coeffs': another module neither imports a slot constant nor reads a bit
# offset or the window's key test
KEY_CONSTANTS = {"SLOT", "MASK", "HBAR", "PDEG"}
KEY_ATTRIBUTES = {"letters_at", "param_at", "letter_at", "_clip"}


@pytest.mark.parametrize("path", [
    p for p in sorted(Path(loophier.__file__).parent.glob("*.py"))
    if p.name != "ring.py"], ids=lambda p: p.stem)
def test_only_ring_reads_term_keys(path):
    tree = ast.parse(path.read_text())
    leaked = {name for name in imported(tree)
              if name in KEY_CONSTANTS or name.endswith("_AT")}
    assert not leaked, f"{path.name} imports {sorted(leaked)}"
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)} & KEY_ATTRIBUTES
    assert not read, f"{path.name} reads {sorted(read)}"
