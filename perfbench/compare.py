"""Compare two result documents written by ``run.py --out``.

Usage: python3 perfbench/compare.py BASE.json NEW.json

Prints each metric of BASE beside NEW with NEW's change as a share of
BASE.  Refuses, with exit code 2, to compare results of different
workloads or trace modes, or results measured on different rational
backends (gmpy2 ``mpq`` against ``fractions.Fraction``), whose times are
not comparable.
"""

import json
import sys


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    docs = []
    for path in argv[1:]:
        with open(path) as fh:
            docs.append(json.load(fh))
    base, new = docs
    for what, a, b in (("workload", base["workload"], new["workload"]),
                       ("trace mode", base["trace"], new["trace"]),
                       ("rational backend", base["meta"]["backend"],
                        new["meta"]["backend"])):
        if a != b:
            print(f"refusing to compare: {what} {a!r} against {b!r}",
                  file=sys.stderr)
            return 2
    print(f"workload {base['workload']}  backend {base['meta']['backend']}  "
          f"commits {base['meta']['commit']} -> {new['meta']['commit']}")
    for name, m in base["result"]["metrics"].items():
        other = new["result"]["metrics"].get(name)
        if other is None:
            print(f"  {name:36s} missing from NEW")
            continue
        change = ((other["value"] - m["value"]) / m["value"]
                  if m["value"] else float("nan"))
        print(f"  {name:36s} {m['value']:14.6f} {other['value']:14.6f} "
              f"{m['unit']:6s} {change:+8.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
