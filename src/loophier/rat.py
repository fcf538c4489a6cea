"""Exact rationals where text and the Bernoulli numbers meet the engine.

Q is the one exact rational type, fractions.Fraction.  The engine itself
computes on integer coefficient triples (see coeffs), the kernel rows of
the star commutator included; Q appears only in parsing and rendering, in
coeffs.as_coeff and coeffs.to_pair, and in the Bernoulli numbers, which
the engine reads through as_coeff.
"""

from fractions import Fraction as Q
from math import comb

from .errors import ParseError

Q0 = Q(0)
Q1 = Q(1)


def qstr(q):
    """Render a rational as "numerator/denominator" in lowest terms."""
    return f"{q.numerator}/{q.denominator}"


def parse_q(text, path=""):
    """Parse "p/q" produced by qstr.  Enforces lowest terms and q > 0."""
    if not isinstance(text, str):
        raise ParseError(f"expected rational string, got {text!r}", path)
    num, sep, den = text.partition("/")
    if not sep:
        raise ParseError(f"rational {text!r} lacks '/'", path)
    try:
        n, d = int(num), int(den)
    except ValueError:
        raise ParseError(f"rational {text!r} is not integer/integer", path) from None
    if d <= 0:
        raise ParseError(f"rational {text!r} has non-positive denominator", path)
    q = Q(n, d)
    if q.numerator != n or q.denominator != d:
        raise ParseError(f"rational {text!r} is not in lowest terms", path)
    return q


_BERNOULLI_CACHE = {0: Q1}


def bernoulli(n):
    """Exact Bernoulli number B_n (convention B_1 = -1/2).

    Computed from the defining recurrence sum_{k=0}^{n} binom(n+1,k) B_k = 0,
    whose terms with odd k > 1 are skipped, since those B_k are 0.
    """
    if n < 0:
        raise ValueError("Bernoulli index must be non-negative")
    if n not in _BERNOULLI_CACHE:
        for m in range(max(_BERNOULLI_CACHE) + 1, n + 1):
            if m > 1 and m % 2:
                _BERNOULLI_CACHE[m] = Q0
                continue
            acc = sum(comb(m + 1, k) * _BERNOULLI_CACHE[k]
                      for k in range(m) if k < 2 or not k % 2)
            _BERNOULLI_CACHE[m] = -acc / (m + 1)
    return _BERNOULLI_CACHE[n]
