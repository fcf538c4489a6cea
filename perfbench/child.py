"""One benchmark sample, run in a fresh interpreter by run.py.

Usage: python3 perfbench/child.py <src dir> <workload> <setup|run|trace>

``setup`` imports loophier and builds the workload, then stops; ``run``
also runs it; ``trace`` runs it with the tracer installed after the
import.  The sample is printed as one JSON object on stdout.  Process-wide
caches (kernel rows, factorials, Bernoulli numbers) start cold, as they do
for a user who runs one computation per process.
"""

import json
import os
import platform
import resource
import sys
import time
import traceback

from tracer import Tracer
from workloads import BUILDERS, digest


def main(argv):
    src, name, mode = argv[1:]
    build = BUILDERS[name]
    sys.path.insert(0, src)
    clock = time.perf_counter
    cpu = time.process_time

    t0, c0 = clock(), cpu()
    import loophier
    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.install()
        t_traced = clock()
    run = build(loophier)
    t1, c1 = clock(), cpu()

    sample = {
        "pid": os.getpid(),
        "mode": mode,
        "setup_s": t1 - t0,
        "setup_cpu_s": c1 - c0,
        "row_cache_at_start": len(loophier.brackets._ROW_CACHE),
        "python": platform.python_version(),
        "backend": loophier.rat.Q.__module__,
        "loophier": os.path.dirname(loophier.__file__),
    }
    if mode != "setup":
        setup_self = tracer.self_total() if tracer else 0.0
        phases = {}
        problems = []

        def phase(key, fn, *args):
            start = clock()
            result = fn(*args)
            phases[key] = clock() - start
            return result

        try:
            doc, problems = run(phase)
            sample["digest"] = digest(doc)
        except Exception as exc:  # a raise is a failed sample, not a crash
            traceback.print_exc()
            problems.append(f"raised {type(exc).__name__}: {exc}")
        t2, c2 = clock(), cpu()
        sample["total_s"] = t2 - t1
        sample["total_cpu_s"] = c2 - c1
        sample["phases"] = phases
        if tracer:
            run_self = tracer.self_total() - setup_self
            sample["bindings"] = tracer.bindings()
            sample["layers"] = tracer.layer_metrics()
            sample["self_s"] = {"setup": setup_self, "run": run_self}
            if not tracer.uninstall():
                problems.append("a traced binding was not restored")
            if run_self > sample["total_s"]:
                problems.append("layer self times exceed the traced total_s")
            if setup_self > t1 - t_traced:
                problems.append("layer self times exceed the traced set-up")
        sample["problems"] = problems
    sample["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(sample))


if __name__ == "__main__":
    main(sys.argv)
