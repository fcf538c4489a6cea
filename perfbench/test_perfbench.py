"""Checks on the benchmark itself: cold starts, trace neutrality, attribution.

Run with: python3 -m pytest perfbench
"""

import json
import subprocess
import sys

import pytest

import run
from tracer import SPANS, COUNTERS, Tracer
from workloads import DIGESTS

with open(run.ROOT / "BENCHMARK.json") as fh:
    BENCHMARK = json.load(fh)


def _assert_declared(doc, section):
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    reported = {n: m["unit"] for n, m in doc["result"]["metrics"].items()}
    assert reported == declared


def test_declared_workloads_are_the_pinned_ones():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(DIGESTS) \
        == set(run.BUILDERS)


def test_timed_samples_start_cold_in_their_own_processes():
    doc = run.measure("ansatz-g3", seed=1, seconds=1, trace=False)
    assert doc["result"]["correct"], doc["failures"]
    _assert_declared(doc, "end_to_end")
    timed = doc["samples"]
    assert timed and all(s["row_cache_at_start"] == 0 for s in timed)
    timed_pids = [s["pid"] for s in timed]
    other_pids = [doc["warmup_pid"]] + [s["pid"] for s in doc["setup_samples"]]
    assert len(set(timed_pids)) == len(timed_pids)
    assert not set(timed_pids) & set(other_pids)
    # a warm-up reference, then one before and one after every sample
    assert len(doc["gauges_cpu_s"]) == len(timed) + 2


def test_reference_is_pinned_and_independent_of_loophier():
    code = ("import sys, reference; ok = reference.compute() == "
            "reference.DIGEST; print(ok, 'loophier' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], cwd=run.HERE,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["True", "False"]


def _bindings(loophier):
    owners = [m for n, m in sorted(sys.modules.items())
              if n.split(".")[0] == "loophier"]
    owners += [loophier.DiffPoly, loophier.Hierarchy]
    return {(id(o), attr): v for o in owners for attr, v in vars(o).items()}


def test_tracer_rebinds_every_importer_and_restores_it():
    sys.path.insert(0, str(run.SRC))
    import loophier
    before = _bindings(loophier)
    tracer = Tracer()
    tracer.install()
    try:
        for mod in (loophier, loophier.ring, loophier.brackets,
                    loophier.recursion, loophier.miura):
            assert mod.dx.__name__ == "traced"
        assert loophier.ansatz.var_deriv.__name__ == "traced"
        assert loophier.ring.cmul.__name__ == "counted"
        assert vars(loophier.DiffPoly)["__rmul__"].__name__ == "traced"
        assert tracer.bindings() > len(SPANS) + len(COUNTERS)
    finally:
        assert tracer.uninstall()
    after = _bindings(loophier)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_traced_run_is_neutral_and_attributes_time(workload):
    doc = run.measure(workload, seed=2, seconds=1, trace=True)
    assert doc["result"]["correct"], doc["failures"]
    _assert_declared(doc, "per_layer")
    untraced = [s for s in doc["samples"] if s["mode"] == "run"]
    traced = [s for s in doc["samples"] if s["mode"] == "trace"]
    assert traced and untraced
    assert {s["digest"] for s in traced} == {s["digest"] for s in untraced} \
        == {DIGESTS[workload]}
    for s in traced:
        assert s["bindings"] > 0
        assert s["self_s"]["run"] <= s["total_s"]
    assert doc["attribution"] and all(a["ok"] for a in doc["attribution"]), \
        doc["attribution"]
