"""Coefficient field: Gaussian rationals, as (re, im) pairs of rationals.

A scalar is a pair; formal parameters are not part of it.  The ring layer
keeps a term's parameter exponents in the term key, so a scalar that
carries parameters is a constant of the ring (``ring.param("q")``).  A
scalar from a user becomes a pair through ``as_pair`` and nowhere else.
"""

from numbers import Rational

from .rat import Q, Q0, Q1
from .errors import ParseError

# ---------------------------------------------------------------------------
# raw (re, im) pair helpers, used in hot loops

CZERO = (Q0, Q0)
CONE = (Q1, Q0)
# i^n is I_POW[n % 4] and (-i)^n is I_POW[-n % 4]
I_POW = (CONE, (Q0, Q1), (-Q1, Q0), (Q0, -Q1))


def as_pair(x):
    """The pair of a user scalar: a rational, or an (re, im) tuple of them.

    Anything else raises TypeError, floats and strings included: a float is
    seldom the rational it looks like, and every result here is exact.
    """
    if isinstance(x, tuple):
        if (len(x) == 2 and isinstance(x[0], Rational)
                and isinstance(x[1], Rational)):
            return (Q(x[0]), Q(x[1]))
    elif isinstance(x, Rational):
        return (Q(x), Q0)
    raise TypeError("expected a rational or an (re, im) pair of rationals, "
                    f"got {x!r}")


def cadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def csub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def cneg(a):
    return (-a[0], -a[1])


def cmul(a, b):
    ar, ai = a
    br, bi = b
    return (ar * br - ai * bi, ar * bi + ai * br)


def cscale(a, q):
    return (a[0] * q, a[1] * q)


def cdiv(a, b):
    br, bi = b
    n = br * br + bi * bi
    if n == 0:
        raise ZeroDivisionError("division by zero coefficient")
    ar, ai = a
    return ((ar * br + ai * bi) / n, (ai * br - ar * bi) / n)


def is_czero(a):
    return not a[0] and not a[1]


def accumulate(d, key, val):
    """d[key] += val in place; a key whose sum is zero is removed.

    val must be nonzero, so only a sum is tested for zero: that test costs
    two Python-level calls on Fraction components, and a new key is the
    common case.
    """
    cur = d.get(key)
    if cur is None:
        d[key] = val
        return
    s = cadd(cur, val)
    if is_czero(s):
        del d[key]
    else:
        d[key] = s


# ---------------------------------------------------------------------------
# exact linear algebra: sparse rows mapping orderable column keys to pairs


def echelon_add(pivots, row):
    """Add a row to a reduced row echelon form kept in pivots.

    pivots maps each lead column to the rest of its row; the lead entry
    itself is one and not stored, and no lead column appears in another
    row.  row is reduced against them; whatever is left is normalised at
    its least column, eliminated from every kept row and kept.  The result
    is therefore the unique reduced echelon form of all rows added, in any
    order.  Returns (lead column, entry there before normalisation), or
    None when the row lies in the span of the kept ones.
    """
    row = {c: v for c, v in row.items() if not is_czero(v)}
    for col in [c for c in row if c in pivots]:
        _sub_multiple(row, row.pop(col), pivots[col])
    if not row:
        return None
    lead = min(row)
    value = row.pop(lead)
    inv = cdiv(CONE, value)
    row = {c: cmul(v, inv) for c, v in row.items()}
    for other in pivots.values():
        w = other.pop(lead, None)
        if w is not None:
            _sub_multiple(other, w, row)
    pivots[lead] = row
    return lead, value


def _sub_multiple(dst, w, src):
    """dst -= w * src, in place, dropping entries that cancel."""
    w = cneg(w)
    for c, v in src.items():
        accumulate(dst, c, cmul(w, v))


def inverse(m):
    """Inverse of a square matrix of pairs, or None when it is singular."""
    n = len(m)
    pivots = {}
    for i, entries in enumerate(m):
        row = dict(enumerate(entries))
        row[n + i] = CONE
        echelon_add(pivots, row)
    if any(i not in pivots for i in range(n)):
        return None
    return tuple(tuple(pivots[i].get(n + j, CZERO) for j in range(n))
                 for i in range(n))


# ---------------------------------------------------------------------------
# parameter monomials: sorted tuples of (name, positive exponent)


def merge_params(a, b):
    if not a:
        return b
    if not b:
        return a
    d = dict(a)
    for name, e in b:
        d[name] = d.get(name, 0) + e
    return tuple(sorted(d.items()))


def params_from_map(m, path=""):
    out = []
    for name, e in m.items():
        if not isinstance(name, str) or not name:
            raise ParseError(f"bad parameter name {name!r}", path)
        if not isinstance(e, int) or e <= 0:
            raise ParseError(f"parameter exponent must be a positive int, got {e!r}",
                             path)
        out.append((name, e))
    return tuple(sorted(out))

