"""Coefficient field: Gaussian rationals, as normalised triples of ints.

A coefficient is (re_num, im_num, den), standing for (re_num + im_num i) /
den, with den > 0 and the three numbers sharing no common factor; zero is
(0, 0, 1).  So equal values are equal tuples, and the hot loops do integer
arithmetic and one gcd per operation.  Only this module knows the layout:
other modules build coefficients with as_coeff and the constants here,
combine them with the c* helpers, and turn them back into an (re, im) pair
of rationals (rat.Q) with to_pair where they meet a caller, or into the
"n/d" texts of that pair with to_text where they meet serialized text.

Formal parameters are not part of a coefficient.  The ring layer keeps a
term's parameter exponents in the term key, so a scalar that carries
parameters is a constant of the ring (``ring.param("q")``).
"""

from math import gcd, lcm
from numbers import Rational

from .rat import Q

# ---------------------------------------------------------------------------
# the coefficient triple and its arithmetic, used in hot loops

CZERO = (0, 0, 1)
CONE = (1, 0, 1)
# i^n is I_POW[n % 4] and (-i)^n is I_POW[-n % 4]
I_POW = (CONE, (0, 1, 1), (-1, 0, 1), (0, -1, 1))


def _normal(re, im, den):
    """The triple of (re + im i) / den, for den > 0."""
    g = gcd(re, im, den)
    return (re // g, im // g, den // g)


def as_coeff(x):
    """The coefficient of a scalar: a rational, an (re, im) pair of them, or
    an already normalised coefficient triple.

    Anything else raises TypeError, floats and strings included: a float is
    seldom the rational it looks like, and every result here is exact.  So
    does a triple of ints that is not normalised, which is no coefficient.
    """
    if isinstance(x, tuple):
        if len(x) == 3 and all(type(v) is int for v in x):
            if x[2] <= 0 or gcd(*x) != 1:
                raise TypeError(f"coefficient triple {x!r} is not normalised")
            return x
        if (len(x) == 2 and isinstance(x[0], Rational)
                and isinstance(x[1], Rational)):
            re, im = Q(x[0]), Q(x[1])
            return _normal(re.numerator * im.denominator,
                           im.numerator * re.denominator,
                           re.denominator * im.denominator)
    elif isinstance(x, Rational):
        x = Q(x)
        return (x.numerator, 0, x.denominator)
    raise TypeError("expected a rational, an (re, im) pair of rationals or a "
                    f"coefficient triple, got {x!r}")


def cint(n):
    """The coefficient of an int."""
    return (n, 0, 1)


def to_pair(a):
    """The (re, im) pair of rationals of a coefficient."""
    re, im, den = a
    return (Q(re, den), Q(im, den))


def to_text(a):
    """The "n/d" texts of the real and imaginary parts of a coefficient,
    each in lowest terms, as rat.qstr writes the pair to_pair gives."""
    re, im, den = a
    g, h = gcd(re, den), gcd(im, den)
    return f"{re // g}/{den // g}", f"{im // h}/{den // h}"


def cadd(a, b):
    ar, ai, ad = a
    br, bi, bd = b
    re, im, den = ar * bd + br * ad, ai * bd + bi * ad, ad * bd
    g = gcd(re, im, den)
    return (re // g, im // g, den // g)


def csub(a, b):
    return cadd(a, cneg(b))


def cneg(a):
    return (-a[0], -a[1], a[2])


def cmul(a, b):
    ar, ai, ad = a
    br, bi, bd = b
    re, im, den = ar * br - ai * bi, ar * bi + ai * br, ad * bd
    g = gcd(re, im, den)
    return (re // g, im // g, den // g)


def cscale(a, n, d=1):
    """a times the rational n / d, for ints n and d != 0."""
    if d < 0:
        n, d = -n, -d
    re, im, den = a[0] * n, a[1] * n, a[2] * d
    g = gcd(re, im, den)
    return (re // g, im // g, den // g)


def cdiv(a, b):
    br, bi, bd = b
    n = br * br + bi * bi
    if n == 0:
        raise ZeroDivisionError("division by zero coefficient")
    ar, ai, ad = a
    return _normal((ar * br + ai * bi) * bd, (ai * br - ar * bi) * bd, ad * n)


def is_czero(a):
    return not a[0] and not a[1]


def accumulate(d, key, a, b=None):
    """d[key] += a, or d[key] += a * b when b is given, in place; a key
    whose sum is zero is removed.

    a and b must be nonzero, so only a sum is tested for zero.  Whatever
    is stored is normalised once: a new key costs one dict lookup, and one
    gcd when b is given; a present key costs one gcd, product or not.
    """
    cur = d.get(key)
    if b is None:
        if cur is None:
            d[key] = a
            return
        re, im, den = a
    else:
        ar, ai, ad = a
        br, bi, bd = b
        re, im, den = ar * br - ai * bi, ar * bi + ai * br, ad * bd
        if cur is None:
            g = gcd(re, im, den)
            d[key] = (re // g, im // g, den // g)
            return
    cr, ci, cd = cur
    re, im, den = cr * den + re * cd, ci * den + im * cd, cd * den
    if not re and not im:
        del d[key]
        return
    g = gcd(re, im, den)
    d[key] = (re // g, im // g, den // g)


# ---------------------------------------------------------------------------
# sums over one common denominator (see ring.mul_sum): integer parts that
# add with no gcd, normalised once


def den_lcm(d):
    """The lcm of the denominators of the coefficients that are d's values."""
    return lcm(*{v[2] for v in d.values()})


def scaled_parts(d, scale):
    """[(key, n, p)] of the coefficient dict d times scale, a multiple of
    den_lcm(d): each nonzero part of a coefficient, its real part (p = 0)
    or its imaginary part (p = 1), as the int n of n i^p."""
    out = []
    for k, (re, im, den) in d.items():
        f = scale // den
        if re:
            out.append((k, re * f, 0))
        if im:
            out.append((k, im * f, 1))
    return out


def over_den(res, ims, den):
    """{key: (res[key] + ims[key] i) / den}, normalised, for dicts of ints
    res and ims, a key missing from one standing for 0 there; a key whose
    sum is zero is left out."""
    out = {}
    for k, re in res.items():
        im = ims.get(k, 0)
        if re or im:
            out[k] = _normal(re, im, den)
    for k, im in ims.items():
        if im and k not in res:
            out[k] = _normal(0, im, den)
    return out


# ---------------------------------------------------------------------------
# exact linear algebra: sparse rows mapping orderable column keys to
# coefficients


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
        accumulate(dst, c, w, v)


def inverse(m):
    """Inverse of a square matrix of coefficients, or None when it is
    singular."""
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
