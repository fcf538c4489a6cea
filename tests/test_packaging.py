import importlib
import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_declared_script_targets_import():
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"{name} = {target!r}"


def test_declared_dependencies_import():
    # a requirement's distribution name, with "-" as "_", is its module here
    for req in tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"]:
        name = re.match(r"[A-Za-z0-9_.-]+", req).group()
        importlib.import_module(name.replace("-", "_"))
