"""A fixed reference computation that gauges how fast the machine is now.

Usage: python3 perfbench/reference.py

The benchmark runs it in its own fresh interpreter between the timed
samples and divides each sample's CPU time by the reference's.  It does
the kind of work loophier does (sparse polynomials keyed by tuples of
factors, with pairs of rationals as coefficients, multiplied and
differentiated) but imports nothing from loophier, so a change to the
program never moves it, while a host that runs Python slower for a while
(a busy neighbour, a lower clock) slows both alike.

Prints one JSON object: ``{"cpu_s": ..., "wall_s": ..., "digest": ...}``.
"""

import hashlib
import json
import random
import time
from fractions import Fraction

ROUNDS = 3
DIGEST = "dfb865b872b67f815b4d968734c4f2ea7c3adc31d3aa1050af41a94bf6ebec70"


def _merge(a, b):
    d = {}
    for k, p in a + b:
        d[k] = d.get(k, 0) + p
    return tuple(sorted(d.items()))


def _mul(f, g):
    out = {}
    for ka, (ra, ia) in f.items():
        for kb, (rb, ib) in g.items():
            key = (ka[0] + kb[0], _merge(ka[1], kb[1]))
            re, im = ra * rb - ia * ib, ra * ib + ia * rb
            old = out.get(key)
            if old is not None:
                re, im = old[0] + re, old[1] + im
            if re or im:
                out[key] = (re, im)
            else:
                out.pop(key, None)
    return out


def _dx(f):
    out = {}
    for (e, factors), (re, im) in f.items():
        for i, (k, p) in enumerate(factors):
            rest = list(factors)
            if p == 1:
                del rest[i]
            else:
                rest[i] = (k, p - 1)
            key = (e, _merge(tuple(rest), ((k + 1, 1),)))
            old = out.get(key, (0, 0))
            out[key] = (old[0] + p * re, old[1] + p * im)
    return {k: v for k, v in out.items() if v[0] or v[1]}


def _poly(rng, terms):
    f = {}
    for _ in range(terms):
        factors = _merge((), tuple((rng.randrange(4), rng.randrange(1, 3))
                                   for _ in range(rng.randrange(1, 4))))
        f[(rng.randrange(3), factors)] = (
            Fraction(rng.randrange(-9, 10), rng.randrange(1, 12)),
            Fraction(rng.randrange(-3, 4), rng.randrange(1, 5)))
    return f


def compute():
    """The reference work; returns a digest of its exact result."""
    rng = random.Random(20170301)
    h = hashlib.sha256()
    for _ in range(ROUNDS):
        f, g = _poly(rng, 20), _poly(rng, 20)
        prod = _mul(_dx(f), _mul(f, g))
        h.update(repr(sorted(prod.items())).encode())
    return h.hexdigest()


def main():
    t0, c0 = time.perf_counter(), time.process_time()
    result = compute()
    t1, c1 = time.perf_counter(), time.process_time()
    print(json.dumps({"cpu_s": c1 - c0, "wall_s": t1 - t0,
                      "digest": result}))


if __name__ == "__main__":
    main()
