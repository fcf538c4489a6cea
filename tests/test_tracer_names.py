"""Every name the benchmark tracer wraps must exist in loophier.

perfbench/tracer.py rebinds these names from outside the program; a
refactor that renames or deletes one would otherwise only show as a failed
traced benchmark sample.
"""

import importlib.util
from pathlib import Path

import loophier

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    tracer = load_tracer()
    for _, owner, attr in tracer.SPANS + tracer.COUNTERS:
        assert attr in vars(tracer._owner(owner)), f"{owner}.{attr}"
    assert isinstance(loophier.brackets._ROW_CACHE, dict)
