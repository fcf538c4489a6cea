"""Exact rationals where text and tables meet the engine.

Q is the one exact rational type, fractions.Fraction.  The engine itself
computes on integer coefficient triples (see coeffs); Q appears only in
parsing and rendering, in coeffs.as_coeff and coeffs.to_pair, and in the
Bernoulli and kernel-row tables, whose entries the engine reads through
as_coeff or as an integer numerator and denominator.
"""

from fractions import Fraction as Q

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

    Computed from the defining recurrence sum_{k=0}^{n} binom(n+1,k) B_k = 0.
    """
    if n < 0:
        raise ValueError("Bernoulli index must be non-negative")
    if n not in _BERNOULLI_CACHE:
        top = max(_BERNOULLI_CACHE) + 1
        for m in range(top, n + 1):
            acc = Q0
            binom = 1  # binom(m+1, k), built incrementally
            for k in range(m):
                acc += binom * _BERNOULLI_CACHE[k]
                binom = binom * (m + 1 - k) // (k + 1)
            _BERNOULLI_CACHE[m] = -acc / (m + 1)
    return _BERNOULLI_CACHE[n]
