"""Benchmark of loophier: generation, verification and ansatz solving.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload quantum-verify --seed 1 \\
        --seconds 40 --trace 0 [--out result.json]

Every sample runs in a fresh interpreter (perfbench/child.py), one at a
time, so process-wide caches start cold as they do for a user.  A run
first starts one untimed warm-up process (bytecode compilation, file
cache) and one untimed reference process, then repeats rounds until the
next round would end past ``--seconds``.

``--trace 0`` rounds are three set-up-only processes, one timed process
and one process of reference.py, a fixed computation that does not use
loophier.  The end-to-end metrics are:

- ``total_rel``: CPU time of the timed process from the end of set-up to
  a verified result, divided by the mean CPU time of the two reference
  processes around it; the median over the run.  The host is shared, and
  for minutes at a time it runs Python markedly slower (1.8x was seen):
  wall and CPU seconds both follow, while this ratio does not.  A faster
  loophier lowers it in proportion.  Seconds are printed beside it.
- ``setup_s``: wall time of importing loophier and building the preset
  and the Hierarchy or AnsatzProblem, median over every process of the
  run.
- ``peak_rss_mb``: median ``ru_maxrss`` of the timed processes.

``--trace 1`` rounds are one untraced and one traced process, and the
run reports the per-layer metrics of tracer.py from the fastest traced
process, plus ``trace.overhead_ratio``, its total_s over the fastest
untraced one.

A sample fails when it raises, exits abnormally, leaves a check residual,
or its output digest differs from the pinned one in workloads.DIGESTS.
The seed only picks each process's PYTHONHASHSEED: the workloads are
fixed presets and their outputs must not depend on it.

The last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``; the lines above it are
the same figures for a human, with the run's metadata.
"""

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import DIGEST as REFERENCE_DIGEST
from workloads import BUILDERS, DIGESTS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 3        # set-up-only processes before each timed one
RUN_LIMIT_S = 170        # no process may run past this point of a run

# (workload, inclusive span, least share of traced total_s).  A breakdown
# below its floor means the wrappers misattribute time.
ATTRIBUTION = [
    ("classical-gen", "functionals.dx_inverse.s", 0.70),
    ("quantum-verify", "brackets.star.s", 0.80),
    ("ansatz-g3", "brackets.kernel_row.s", 0.35),
]


def spawn(cmd, hash_seed, started):
    """Run one child process to completion; its JSON line, or its problem."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    timeout = max(1.0, RUN_LIMIT_S - (time.perf_counter() - started))
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"problems": [f"timed out after {timeout:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1]) if proc.returncode == 0 and lines \
            else None
    except ValueError:
        out = None
    if out is None:
        tail = proc.stderr.strip().splitlines()[-1:] or ["nothing printed"]
        return {"problems": [f"exited with {proc.returncode}: {tail[0]}"]}
    return out


def sample(workload, mode, hash_seed, started):
    """One child.py process: a set-up, a run or a traced run."""
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC), workload, mode]
    out = spawn(cmd, hash_seed, started)
    out["mode"] = mode
    if "loophier" in out and Path(out["loophier"]) != SRC / "loophier":
        out["problems"] = out.get("problems", []) + [
            f"imported loophier from {out['loophier']}"]
    return out


def gauge(started):
    """CPU seconds of one reference.py process, checked against its pin."""
    out = spawn([sys.executable, str(HERE / "reference.py")], 0, started)
    if out.get("digest") != REFERENCE_DIGEST:
        sys.exit(f"the reference computation failed: {out}")
    return out["cpu_s"]


def check(workload, sample):
    """Every reason the sample fails; empty when it is correct."""
    problems = list(sample.get("problems", []))
    if "total_s" in sample:
        if sample.get("digest") != DIGESTS[workload]:
            problems.append(f"digest {sample.get('digest')} differs from "
                            "the pinned one")
        if sample["row_cache_at_start"]:
            problems.append("kernel-row cache was warm before the run")
    return problems


def summary(values):
    """Fastest, median and count of one timing over a run's samples."""
    values = sorted(values)
    return {"min": values[0], "median": statistics.median(values),
            "n": len(values)}


def measure(workload, seed, seconds, trace):
    """Run the benchmark; returns the result document (see --out)."""
    rng = random.Random(seed)
    nproc = len(os.sched_getaffinity(0))
    # One CPU for every process of the run, so that the reference runs on
    # the CPU the samples ran on: the host slows each of them on its own.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    started = time.perf_counter()

    def child(mode):
        return sample(workload, mode, rng.randrange(1, 2 ** 32), started)

    warmup = child("setup")
    gauges = [] if trace else [gauge(started), gauge(started)]
    setups = []
    timed = []
    rounds = []
    while True:
        begun = time.perf_counter()
        if trace:
            timed.append(child("run"))
            timed.append(child("trace"))
        else:
            setups.extend(child("setup") for _ in range(SETUP_SAMPLES))
            timed.append(child("run"))
            gauges.append(gauge(started))
        now = time.perf_counter()
        rounds.append(now - begun)
        if now - started + max(rounds) > seconds:
            break

    failures = {}
    for i, s in enumerate(timed):
        problems = check(workload, s)
        if problems:
            failures[i] = problems
    finished = [s for s in timed if "total_s" in s]
    untraced = [s for s in finished if s["mode"] == "run"]
    traced = [s for s in finished if s["mode"] == "trace"]
    if not untraced or (trace and not traced):
        for i, problems in failures.items():
            print(f"sample {i}: {'; '.join(problems)}", file=sys.stderr)
        return None

    setup_pool = [s for s in setups + untraced if "setup_s" in s]
    timings = {"total_s": summary(s["total_s"] for s in untraced),
               "total_cpu_s": summary(s["total_cpu_s"] for s in untraced),
               "setup_s": summary(s["setup_s"] for s in setup_pool)}
    for name in sorted({n for s in untraced for n in s["phases"]}):
        timings[name] = summary(s["phases"][name] for s in untraced
                                if name in s["phases"])
    attribution = []
    if trace:
        timings["traced total_s"] = summary(s["total_s"] for s in traced)
        fastest = min(traced, key=lambda s: s["total_s"])
        metrics = dict(fastest["layers"])
        metrics["trace.overhead_ratio"] = (fastest["total_s"]
                                           / timings["total_s"]["min"])
        for name, span, floor in ATTRIBUTION:
            if name == workload:
                share = fastest["layers"][span] / fastest["total_s"]
                attribution.append({"span": span, "share": share,
                                    "floor": floor, "ok": share >= floor})
    else:
        # sample i ran between gauges i + 1 and i + 2; gauge 0 is a warm-up
        rel = [s["total_cpu_s"] / ((gauges[i + 1] + gauges[i + 2]) / 2)
               for i, s in enumerate(timed) if "total_s" in s]
        timings["reference cpu_s"] = summary(gauges[1:])
        metrics = {"total_rel": statistics.median(rel),
                   "setup_s": timings["setup_s"]["median"],
                   "peak_rss_mb": statistics.median(
                       s["peak_rss_mb"] for s in untraced)}

    first = finished[0]
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace,
        "meta": {"python": first["python"], "backend": first["backend"],
                 "nproc": nproc,
                 "commit": commit(), "source_sha256": source_digest()},
        "result": {
            "correct": not failures,
            "attempted": len(timed),
            "failed": len(failures),
            "metrics": {name: {"value": value, "unit": unit_of(name)}
                        for name, value in metrics.items()},
        },
        "timings": timings,
        "attribution": attribution,
        "failures": {str(i): p for i, p in failures.items()},
        "warmup_pid": warmup.get("pid"),
        "setup_samples": setups,
        "samples": timed,
        "gauges_cpu_s": gauges,
    }


def unit_of(name):
    """Unit of a metric, read off its name."""
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", "_rel")):
        return "ratio"
    return "count"


def commit():
    """HEAD of the checkout when it is a git repository, else None."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def source_digest():
    """sha256 over the loophier sources, identifying the code measured."""
    h = hashlib.sha256()
    for path in sorted((SRC / "loophier").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def show(doc):
    """The human-readable lines printed above the JSON result."""
    result = doc["result"]
    lines = [f"workload {doc['workload']}  seed {doc['seed']}  "
             f"trace {doc['trace']}  processes timed {result['attempted']}"
             f"  set-up only {len(doc['setup_samples'])}"]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:36s} {m['value']:14.6f} {m['unit']}")
    for name, t in doc["timings"].items():
        lines.append(f"  {name:36s} {t['min']:14.6f} s fastest, "
                     f"{t['median']:.6f} s median of {t['n']}")
    lines.append(f"  {'failed_ratio':36s} {result['failed']}/"
                 f"{result['attempted']}")
    for i, problems in doc["failures"].items():
        lines.append(f"  sample {i} failed: {'; '.join(problems)}")
    for a in doc["attribution"]:
        verdict = "ok" if a["ok"] else "FAILED: the wrappers misattribute time"
        lines.append(f"  attribution {a['span']} = {a['share']:.3f} of "
                     f"traced total_s (floor {a['floor']}): {verdict}")
    meta = doc["meta"]
    lines.append(f"  python {meta['python']}  backend {meta['backend']}  "
                 f"nproc {meta['nproc']}  commit {meta['commit']}  "
                 f"source {meta['source_sha256'][:16]}")
    return "\n".join(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result document")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "loophier" / "__init__.py").is_file():
        sys.exit(f"no loophier sources under {SRC}; run the benchmark "
                 "from the root of a checkout of the repository")
    doc = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if doc is None:
        sys.exit("no sample finished; nothing was measured")
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    print(show(doc))
    print(json.dumps(doc["result"]))


if __name__ == "__main__":
    main()
