"""Laws of the coefficient triples, the term accumulator and the exact
elimination kernel."""

import itertools
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from loophier.ansatz import _rref
from loophier.coeffs import (CONE, CZERO, accumulate, as_coeff, cadd, cdiv,
                             cmul, cneg, cscale, csub, echelon_add, inverse,
                             is_czero, to_pair, to_text)
from loophier.errors import Inconsistent
from loophier.rat import Q, qstr

# mostly zeros, so that dependent rows and singular matrices are common
entry = st.builds(lambda re, im: as_coeff((Q(re), Q(im))),
                  st.sampled_from([0, 0, 0, 1, -1, 2, Q(1, 2)]),
                  st.sampled_from([0, 0, 0, 1, Q(-1, 3)]))

rational = st.builds(Q, st.integers(-40, 40), st.integers(1, 12))
coeff = st.builds(lambda re, im: as_coeff((re, im)), rational,
                  st.one_of(st.just(Q(0)), rational))


def normalised(c):
    return (isinstance(c, tuple) and len(c) == 3
            and all(type(v) is int for v in c)
            and c[2] > 0 and gcd(*c) == 1)


# the oracle: the same operations on (re, im) pairs of Fractions

def padd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def pmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def pdiv(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)


@given(a=coeff, b=coeff, n=st.integers(-30, 30),
       d=st.integers(-30, 30).filter(bool))
def test_triple_operations_agree_with_rational_pairs(a, b, n, d):
    x, y = to_pair(a), to_pair(b)
    r = Q(n, d)
    cases = [(cadd(a, b), padd(x, y)),
             (csub(a, b), (x[0] - y[0], x[1] - y[1])),
             (cneg(a), (-x[0], -x[1])),
             (cmul(a, b), pmul(x, y)),
             (cscale(a, n), (x[0] * n, x[1] * n)),
             (cscale(a, n, d), (x[0] * r, x[1] * r))]
    if is_czero(b):
        with pytest.raises(ZeroDivisionError):
            cdiv(a, b)
    else:
        cases.append((cdiv(a, b), pdiv(x, y)))
    for got, want in cases:
        assert normalised(got), got
        assert to_pair(got) == want
    assert is_czero(a) == (x == (0, 0))
    assert (a == b) == (x == y)


@given(re=rational, im=st.one_of(st.just(Q(0)), rational))
def test_as_coeff_and_to_pair_round_trip(re, im):
    c = as_coeff((re, im))
    assert normalised(c)
    assert to_pair(c) == (re, im)
    assert as_coeff(c) == c
    if not im:
        assert as_coeff(re) == c


def _triple(re, im, den):
    g = gcd(re, im, den)
    return (re // g, im // g, den // g)


# zero parts, negative numerators, and denominators that one part shares
# and the other does not
triple = st.builds(_triple, st.integers(-40, 40), st.integers(-40, 40),
                   st.integers(2, 60))


@given(a=triple)
def test_to_text_writes_the_pair_to_pair_gives(a):
    assert normalised(a)
    re, im = to_pair(a)
    assert to_text(a) == (qstr(re), qstr(im))


@pytest.mark.parametrize("bad", [(2, 0, 2), (0, 0, 2), (1, 0, 0), (1, 1, -1),
                                 (1.0, 0, 1), (True, 0, 1), (Q(1), Q(0), 1),
                                 (1, 0, 1, 0), 0.5, "1/2"])
def test_as_coeff_refuses_what_is_not_a_scalar(bad):
    with pytest.raises(TypeError):
        as_coeff(bad)


def matrix(rows, cols):
    return st.lists(st.lists(entry, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


shape = st.tuples(st.integers(1, 4), st.integers(1, 4))


def dot(row, x):
    acc = CZERO
    for a, b in zip(row, x):
        acc = cadd(acc, cmul(a, b))
    return acc


def kernel(a, ncols):
    return _rref([(dict(enumerate(r)), CZERO) for r in a], ncols)[1]


def det(m):
    total = CZERO
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(p > q for p, q in itertools.combinations(perm, 2))
        term = CONE if inversions % 2 == 0 else cneg(CONE)
        for i, j in enumerate(perm):
            term = cmul(term, m[i][j])
        total = cadd(total, term)
    return total


@settings(deadline=None)
@given(data=st.data(),
       base=st.lists(st.tuples(st.integers(0, 3),
                               entry.filter(lambda v: not is_czero(v))),
                     max_size=8))
def test_accumulate_sums_per_key_and_keeps_no_zero(data, base):
    # values are nonzero, as accumulate requires; negating a prefix of them
    # makes some keys cancel in full and others only on the way
    m = data.draw(st.integers(0, len(base)))
    entries = base + [(key, cneg(v)) for key, v in base[:m]]
    d = {}
    for i in data.draw(st.permutations(range(len(entries)))):
        accumulate(d, *entries[i])
    sums = {}
    for key, v in entries:
        sums[key] = cadd(sums.get(key, CZERO), v)
    assert d == {k: v for k, v in sums.items() if not is_czero(v)}


@settings(deadline=None)
@given(data=st.data(),
       base=st.lists(st.tuples(st.integers(0, 3),
                               coeff.filter(lambda v: not is_czero(v)),
                               coeff.filter(lambda v: not is_czero(v))),
                     max_size=8))
def test_accumulate_of_a_product_adds_the_product(data, base):
    # d[key] += a * b in one step stores what d[key] += cmul(a, b) does,
    # normalised, and a product that cancels a sum removes its key
    m = data.draw(st.integers(0, len(base)))
    entries = base + [(key, cneg(a), b) for key, a, b in base[:m]]
    fused, plain = {}, {}
    for i in data.draw(st.permutations(range(len(entries)))):
        key, a, b = entries[i]
        accumulate(fused, key, a, b)
        accumulate(plain, key, cmul(a, b))
    assert fused == plain
    assert all(normalised(v) for v in fused.values())


@settings(deadline=None)
@given(data=st.data(), dims=shape)
def test_echelon_form_is_independent_of_row_order(data, dims):
    a = data.draw(matrix(*dims))
    order = data.draw(st.permutations(range(len(a))))

    def form(rows):
        pivots = {}
        for r in rows:
            echelon_add(pivots, dict(enumerate(r)))
        return pivots

    assert form(a) == form([a[i] for i in order])


@settings(deadline=None)
@given(data=st.data(), dims=shape)
def test_rref_solves_and_spans_the_kernel(data, dims):
    nrows, ncols = dims
    a = data.draw(matrix(nrows, ncols))
    x = data.draw(matrix(1, ncols))[0]
    b = [dot(r, x) for r in a]
    xp, ker = _rref([(dict(enumerate(r)), bi) for r, bi in zip(a, b)],
                    ncols)
    assert [dot(r, xp) for r in a] == b
    assert all(is_czero(dot(r, k)) for r in a for k in ker)
    # rank-nullity on A and its transpose: dim ker A - dim ker A^T = n - m
    assert len(ker) - len(kernel(list(zip(*a)), nrows)) == ncols - nrows


@settings(deadline=None)
@given(data=st.data(), dims=shape)
def test_rref_inconsistent_exactly_outside_the_column_span(data, dims):
    nrows, ncols = dims
    a = data.draw(matrix(nrows, ncols))
    b = data.draw(matrix(1, nrows))[0]
    left = kernel(list(zip(*a)), nrows)
    outside = any(not is_czero(dot(y, b)) for y in left)
    rows = [(dict(enumerate(r)), bi) for r, bi in zip(a, b)]
    if outside:
        with pytest.raises(Inconsistent):
            _rref(rows, ncols)
    else:
        _rref(rows, ncols)


@settings(deadline=None)
@given(data=st.data(), n=st.integers(1, 3))
def test_inverse_is_none_exactly_when_singular(data, n):
    m = data.draw(matrix(n, n))
    inv = inverse(m)
    if is_czero(det(m)):
        assert inv is None
        return
    ident = [[CONE if i == j else CZERO for j in range(n)] for i in range(n)]
    cols = list(zip(*inv))
    assert [[dot(r, c) for c in cols] for r in m] == ident

