import json
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from loophier.rat import Q, qstr
from loophier.coeffs import accumulate, to_pair
from loophier.errors import ContextMismatch, ModeMismatch, ParseError
from loophier.ring import (EPS_AT, HBAR, HBAR_AT, MASK, UDEG_AT,
                           TruncationWindow, RingContext,
                           DiffPoly, dx, dx_pow, partial, euler_D,
                           d_weight_inverse, mul_sum, substitute, serialize,
                           parse, pretty, parse_pretty)
from loophier.fourier import to_fourier
from helpers import (key_genus, key_udeg, poly_strategy, rand_poly, tuple_dx,
                     tuple_partial)


def ring1():
    return RingContext(n_vars=1)


def ringq():
    return RingContext(n_vars=1, mode="quantum")


def ring2q():
    return RingContext(n_vars=2, eta=[[0, 1], [1, 0]], params=("q",),
                       mode="quantum")


def test_zero_and_one():
    R = ring1()
    assert R.zero().is_zero()
    assert not R.one().is_zero()
    u = R.u()
    assert u + R.zero() == u
    assert u * R.one() == u
    assert (u - u).is_zero()


def test_add_cancels_to_canonical():
    R = ring1()
    u = R.u()
    f = u * u / 2 + u
    g = -(u * u) / 2
    assert (f + g) == u
    assert len((f + g).terms) == 1


def test_scalar_arithmetic():
    R = ring1()
    u = R.u()
    assert u * 3 == u + u + u
    assert 3 * u == u * 3
    assert u / 2 + u / 2 == u
    assert (u * Q(2, 3)) * Q(3, 2) == u
    assert u ** 3 == u * u * u
    assert (u + 1) - 1 == u


class Half(Fraction):
    """A rational of a type other than the exact backend's."""


@pytest.mark.parametrize("q", [Fraction(1, 2), Half(1, 2)])
def test_any_rational_is_a_scalar_operand(q):
    R = ring1()
    u = R.u()
    half = R.const(Q(1, 2))
    assert u + q == q + u == u + half
    assert u - q == u - half
    assert q - u == half - u


@pytest.mark.parametrize("bad", [0.5, "x", (1, 0.5), (2, 0, 2)])
def test_unsupported_operands_raise_type_error(bad):
    R = ring1()
    u = R.u()
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(TypeError):
            op(u, bad)
        with pytest.raises(TypeError):
            op(bad, u)
    with pytest.raises(TypeError):
        R.monomial(bad)
    with pytest.raises(TypeError):
        RingContext(eta=[[bad]])
    with pytest.raises(TypeError):
        to_fourier(u, 1).scale(bad)


def test_mode_guard():
    R = ring1()
    with pytest.raises(ModeMismatch):
        R.monomial(1, hbar=1)


def test_context_guard():
    R1, R2 = ring1(), RingContext(n_vars=2)
    with pytest.raises(ContextMismatch):
        R1.u() + R2.u()


def test_eta_must_be_n_by_n():
    for n, eta in ((1, [[1, 0], [0, 1]]), (2, [[1, 0], [0, 1], [0, 0]]),
                   (2, [[1]]), (2, [[1, 0], [0]])):
        with pytest.raises(ValueError, match=f"{n} x {n}"):
            RingContext(n_vars=n, eta=eta)


def test_eta_validation():
    with pytest.raises(ValueError):
        RingContext(n_vars=2, eta=[[0, 1], [2, 0]])
    with pytest.raises(ValueError):
        RingContext(n_vars=2, eta=[[1, 1], [1, 1]])
    R = RingContext(n_vars=2, eta=[[0, 1], [1, 0]])
    assert to_pair(R.eta_inv_pair(1, 2)) == (Q(1), Q(0))
    assert to_pair(R.eta_inv_pair(1, 1)) == (Q(0), Q(0))


def test_mul_commutes_and_associates():
    rng = random.Random(11)
    R = ring2q()
    for _ in range(25):
        f = rand_poly(rng, R)
        g = rand_poly(rng, R)
        h = rand_poly(rng, R)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def ring3():
    return RingContext(n_vars=3, params=("q", "r", "s"), mode="quantum")


# a decoded key (eps, hbar, params, factors) of ring3, with large slots
decoded_keys = st.tuples(
    st.integers(0, 300), st.integers(0, 300),
    st.dictionaries(st.sampled_from(("q", "r", "s")), st.integers(1, 300)).map(
        lambda d: tuple(sorted(d.items()))),
    st.dictionaries(st.tuples(st.integers(1, 3), st.integers(0, 9)),
                    st.integers(1, 300), max_size=6).map(
        lambda d: tuple((a, k, p) for (a, k), p in sorted(d.items()))))


def merged(a, b):
    """The decoded key of the product of two decoded keys."""
    params, powers = dict(a[2]), {(al, k): p for al, k, p in a[3]}
    for name, e in b[2]:
        params[name] = params.get(name, 0) + e
    for al, k, p in b[3]:
        powers[(al, k)] = powers.get((al, k), 0) + p
    return (a[0] + b[0], a[1] + b[1], tuple(sorted(params.items())),
            tuple((al, k, p) for (al, k), p in sorted(powers.items())))


@settings(max_examples=200, deadline=None)
@given(key=decoded_keys)
def test_key_encoding_round_trips(key):
    R = ring3()
    assert R.decode(R.encode(*key)) == key
    m = R.monomial(1, *key[:2], factors=key[3], params=key[2])
    assert [k for k, _ in m.monomials()] == [key]


@settings(max_examples=200, deadline=None)
@given(a=decoded_keys, b=decoded_keys)
def test_product_key_is_the_sum_of_keys(a, b):
    R = ring3()
    ma = R.monomial(1, *a[:2], factors=a[3], params=a[2])
    mb = R.monomial(1, *b[:2], factors=b[3], params=b[2])
    (key,) = (ma * mb).terms
    assert key == R.encode(*a) + R.encode(*b)
    assert R.decode(key) == merged(a, b)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_dx_and_partial_agree_with_tuple_keys(data):
    R = data.draw(st.sampled_from([ring2q(), ring3()]))
    f = data.draw(poly_strategy(R, max_pow=4))
    terms = dict(f.monomials())
    assert dict(dx(f).monomials()) == tuple_dx(terms)
    for al in range(1, R.n_vars + 1):
        for k in range(5):
            assert (dict(partial(f, al, k).monomials())
                    == tuple_partial(terms, al, k))


@settings(max_examples=100, deadline=None)
@given(key=decoded_keys)
def test_equal_rings_key_a_term_alike(key):
    R, S = ring3(), ring3()
    assert R is not S and R == S
    assert R.encode(*key) == S.encode(*key)
    assert (R.monomial(1, *key[:2], factors=key[3], params=key[2]).terms
            == S.monomial(1, *key[:2], factors=key[3], params=key[2]).terms)


def test_no_slot_carries_into_the_next():
    R = ring2q()
    big = R.u(pow=40000)
    with pytest.raises(ValueError):
        big * big
    assert (R.u(pow=30000) * R.u(pow=35535)).udeg_max() == 65535
    with pytest.raises(ValueError):
        R.u(pow=70000)
    with pytest.raises(ValueError):
        R.u(k=1 << 16)
    with pytest.raises(ValueError):
        R.monomial(1, eps=1 << 16)
    with pytest.raises(ValueError):
        R.monomial(1, hbar=1 << 15)
    with pytest.raises(ValueError):
        R.monomial(1, params=(("q", 1 << 16),))
    # a negative value would borrow from the next slot
    for bad in [dict(eps=-1), dict(factors=((1, 0, -1), (1, 1, 1))),
                dict(params=(("q", -1),))]:
        with pytest.raises(ValueError):
            R.u().coefficient_of(**bad)
    for e, h, params in [(40000, 0, ()), (0, 20000, ()),
                         (0, 0, (("q", 40000),))]:
        m = R.monomial(1, eps=e, hbar=h, params=params)
        with pytest.raises(ValueError):
            m * m
    doc = serialize(R.u())
    doc["terms"][0]["factors"] = [[1, 0, 70000]]
    with pytest.raises(ParseError) as err:
        parse(doc, R)
    assert "$.terms[0]" in str(err.value)


def test_dx_is_a_derivation():
    rng = random.Random(12)
    R = ring2q()
    for _ in range(25):
        f = rand_poly(rng, R)
        g = rand_poly(rng, R)
        assert dx(f * g) == dx(f) * g + f * dx(g)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_dx_is_a_derivation_on_adjacent_orders(data):
    # factor tuples holding u^a_k and u^a_{k+1} together, with powers above 1
    R = ring2q()
    f = data.draw(poly_strategy(R))
    g = data.draw(poly_strategy(R))
    assert dx(f * g) == dx(f) * g + f * dx(g)


def test_dx_merges_into_the_next_order():
    R = RingContext(n_vars=2)
    a1, a2, b0 = R.u(1, 1), R.u(1, 2), R.u(2, 0)
    assert dx(a1 ** 2 * a2 ** 3 * b0) == (
        2 * a1 * a2 ** 4 * b0 + 3 * a1 ** 2 * a2 ** 2 * R.u(1, 3) * b0
        + a1 ** 2 * a2 ** 3 * R.u(2, 1))


def test_dx_on_basics():
    R = ring1()
    u = R.u()
    u1 = R.u(1, 1)
    u2 = R.u(1, 2)
    assert dx(u) == u1
    assert dx(u * u / 2) == u * u1
    assert dx_pow(u, 2) == u2
    assert dx(R.one()).is_zero()


def test_dx_pow_takes_each_step_once(monkeypatch):
    # dx_pow keeps dx of a polynomial on it: dx^3, then dx^5, then dx^3 of
    # dx^2 take five steps of dx in all, and the last two reach one object
    calls = []

    def counted_dx(p):
        calls.append(p)
        return dx(p)

    monkeypatch.setattr("loophier.ring.dx", counted_dx)
    R = ring1()
    p = R.u() ** 2 * R.u(1, 1) + R.monomial(1, eps=2) * R.u(1, 2)
    dx_pow(p, 3)
    five = dx_pow(p, 5)
    assert dx_pow(dx_pow(p, 2), 3) is five
    assert len(calls) == 5
    assert five == dx(dx(dx(dx(dx(p)))))


def test_a_genus_cut_is_kept_on_its_polynomial():
    # each cut is built once and kept on the polynomial, keeps its claim,
    # and a cut at or above the top genus is the polynomial itself
    R = RingContext(mode="quantum", window=TruncationWindow(4))
    p = (R.u() ** 2 + R.monomial(1, eps=2) * R.u(1, 2)
         + R.monomial(1, eps=2, hbar=1) * R.u()).with_exact_u(3)
    cut = p.genus_cut(2)
    assert p.genus_cut(2) is cut
    assert cut.terms == {k: v for k, v in p.terms.items() if k & MASK <= 2}
    assert cut.exact_u == 3
    assert p.genus_cut(4) is p and p.genus_cut(5) is p


def test_a_windowed_copy_keeps_its_own_derivatives():
    # with_exact_u shares the terms, not the derivatives: the copy's dx
    # carries the copy's claim
    R = ring1()
    p = R.u() ** 3 + R.u(1, 2)
    exact = dx_pow(p, 2)
    q = p.with_exact_u(2)
    windowed = dx_pow(q, 2)
    assert q._dx is not p._dx
    assert windowed == exact
    assert (exact.exact_u, windowed.exact_u) == (None, 2)
    assert dx_pow(p, 2) is exact and dx_pow(q, 2) is windowed


def test_partial_and_dx_commutator():
    # d/du_k dx - dx d/du_k = d/du_{k-1}
    rng = random.Random(13)
    R = ring1()
    for _ in range(25):
        f = rand_poly(rng, R, allow_i=False)
        for k in (1, 2):
            lhs = partial(dx(f), 1, k) - dx(partial(f, 1, k))
            assert lhs == partial(f, 1, k - 1)


def test_euler_weight_operator():
    R = ringq()
    u = R.u()
    m = R.monomial(1, eps=2, hbar=1, factors=((1, 0, 2),))
    # weight = 2 (u powers) + 2 (eps) + 2 (hbar) = 6
    assert euler_D(m) == m * 6
    assert euler_D(R.one()).is_zero()
    rng = random.Random(14)
    for _ in range(20):
        f = rand_poly(rng, R)
        g = rand_poly(rng, R)
        assert euler_D(f * g) == euler_D(f) * g + f * euler_D(g)
        assert euler_D(dx(f)) == dx(euler_D(f))


def test_degree_grading():
    R = ringq()
    m = R.monomial(1, eps=1, hbar=1, factors=((1, 3, 2),))
    # degree = 3*2 - 1 - 2*1 = 3
    assert m.degree() == 3
    f = R.u() ** 2 * R.monomial(1, eps=2)
    assert dx(f).degree() == f.degree() + 1
    g = f + R.u(1, 2) ** 2
    assert g.top_degree() == 4
    with pytest.raises(ValueError):
        g.degree()


def test_a_window_that_is_not_a_truncation_window_is_refused():
    with pytest.raises(TypeError, match="window"):
        RingContext(window=(2, 3))


def test_truncation_window_mul():
    W = TruncationWindow(genus_cutoff=2, u_degree_cutoff=3)
    R = RingContext(n_vars=1, mode="quantum", window=W)
    u = R.u()
    e = R.monomial(1, eps=1)
    h = R.monomial(1, hbar=1)
    assert (e ** 3).is_zero()
    assert (e * h).is_zero()  # genus 1 + 2 > 2
    assert (u ** 4).is_zero()
    f = u ** 2
    g = u ** 2 + u
    prod = f * g  # u^4 clipped, u^3 kept
    assert prod == u ** 3
    assert prod.exact_u == 3


def test_exact_u_propagation():
    W = TruncationWindow(u_degree_cutoff=3)
    R = RingContext(n_vars=1, window=W)
    u = R.u()
    f = (u ** 2) * (u ** 2 + u)      # exact through 3
    assert f.exact_u == 3
    g = f * u                        # u^4 clipped by the window
    assert g.is_zero() and g.exact_u == 3
    h = f + u
    assert h.exact_u == 3
    assert dx(f).exact_u == 3
    assert partial(f, 1, 0).exact_u == 2
    assert f.within_window() == f.truncate_u(3)


def test_mul_bounds_the_valuation_of_a_windowed_operand():
    # u + u^6 is a true value consistent with f, and squares to u^2 + ...
    u = ring1().u()
    f = (u ** 6).with_exact_u(0)
    assert (f * f).exact_u == 1
    assert (f * f).within_window().is_zero()


@st.composite
def windowed(draw, R):
    """(true, windowed) polynomials of R that agree through a drawn exact_u.

    exact_u is drawn near the true valuation, so the windowed one often
    shows none of the true low terms.  Above exact_u it holds junk whose
    lowest u-degree is exact_u + 1 or higher, so its visible valuation may
    lie above the true one.
    """
    nonzero = poly_strategy(R, max_terms=3).filter(lambda p: not p.is_zero())
    true = draw(nonzero)
    e = max(-1, true.val_u() + draw(st.integers(-2, 2)))
    lift = draw(st.integers(0, 2))
    junk = draw(nonzero) * R.u(1) ** (e + 1 + lift)
    return true, (true.truncate_u(e) + junk).with_exact_u(e)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), gc=st.one_of(st.none(), st.integers(0, 6)),
       uc=st.one_of(st.none(), st.integers(1, 6)))
def test_mul_window_is_sound(data, gc, uc):
    # on a windowed ring the claim also covers the products the u-degree
    # cutoff dropped
    R = RingContext(n_vars=2, eta=[[0, 1], [1, 0]], params=("q",),
                    mode="quantum", window=TruncationWindow(gc, uc))
    f, fw = data.draw(windowed(R))
    g, gw = data.draw(windowed(R))
    prod = fw * gw
    full = DiffPoly(ring2q(), f.terms) * DiffPoly(ring2q(), g.terms)
    assert dict(prod.within_window().monomials()) == {
        k: v for k, v in full.monomials()
        if (gc is None or key_genus(k) <= gc) and key_udeg(k) <= prod.exact_u}


def pairwise_sum(pairs, gc, uc):
    """mul_sum as a plain double loop over the term pairs of each (a, b,
    hbar) in turn, each product added by coeffs.accumulate."""
    out, dropped = {}, False
    for a, b, hbar in pairs:
        for k1, v1 in a.items():
            for k2, v2 in b.items():
                if gc is not None and (k1 & MASK) + (
                        k2 & MASK) > gc - 2 * hbar:
                    continue
                if uc is not None and (k1 >> UDEG_AT & MASK) + (
                        k2 >> UDEG_AT & MASK) > uc:
                    dropped = True
                    continue
                accumulate(out, k1 + k2 + hbar * HBAR, v1, v2)
    return out, dropped


@st.composite
def product_pairs(draw, R):
    """0-4 pairs (a, b, hbar) of term dicts, each operand scaled by its own
    1/d so that the pairs' denominators differ."""
    polys = poly_strategy(R, max_terms=6, max_k=2, max_pow=2, max_eps=4)
    dens = st.sampled_from([1, 2, 3, 5, 7, 9, 12])

    def operand():
        return draw(polys).scale(Q(1, draw(dens))).terms

    return [(operand(), operand(), draw(st.integers(0, 2)))
            for _ in range(draw(st.integers(0, 4)))]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), gc=st.one_of(st.none(), st.integers(0, 8)),
       uc=st.one_of(st.none(), st.integers(0, 6)), empty=st.booleans(),
       cancel=st.booleans())
def test_mul_sum_is_the_pairwise_sum(data, gc, uc, empty, cancel):
    # genus classes only skip the pairs the genus cutoff drops, and the
    # common denominator changes no value: the terms, and the dropped flag,
    # are those of every term pair tried in turn, in any order of the
    # pairs; with empty one pair has an empty operand, and with cancel
    # every pair (a, b, h) meets (a, -b, h), so the sum is {}
    R = ringq()
    pairs = data.draw(product_pairs(R))
    if empty:
        a, b, h = data.draw(product_pairs(R).filter(len))[0]
        pairs.insert(data.draw(st.integers(0, len(pairs))),
                     data.draw(st.sampled_from([({}, b, h), (a, {}, h)])))
    if cancel:
        pairs += [(a, (-DiffPoly(R, b)).terms, h) for a, b, h in pairs]
    got = mul_sum(pairs, gc, uc)
    assert got == pairwise_sum(pairs, gc, uc)
    assert mul_sum(data.draw(st.permutations(pairs)), gc, uc) == got
    if cancel:
        assert got[0] == {}


WINDOW_OPS = {
    "scale": lambda f: f.scale((Q(2, 3), Q(-1, 2))),
    "dx": dx,
    "partial": lambda f: partial(f, 1, 0),
    "euler_D": euler_D,
    # no term has D-weight -1, so nothing raises
    "d_weight_inverse": lambda f: d_weight_inverse(f, shift=-1),
}


@pytest.mark.parametrize("name", sorted(WINDOW_OPS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_unary_window_is_sound(name, data):
    op = WINDOW_OPS[name]
    f, fw = data.draw(windowed(ring2q()))
    out = op(fw)
    assert out.within_window() == op(f).truncate_u(out.exact_u)


def test_selectors():
    R = ringq()
    u = R.u()
    f = u + R.monomial(1, eps=2) * u + R.monomial((0, Q(-1, 24)), hbar=1)
    assert f.eps_zero() == u + R.monomial((0, Q(-1, 24)), hbar=1)
    assert f.hbar_zero() == u + R.monomial(1, eps=2) * u
    assert f.constant_part() == R.monomial((0, Q(-1, 24)), hbar=1)
    assert f.without_constants() + f.constant_part() == f
    assert f.genus_part(2) == R.monomial(1, eps=2) * u + \
        R.monomial((0, Q(-1, 24)), hbar=1)
    hb = R.monomial((0, 1), hbar=1) * u
    assert hb.divide_hbar() == R.monomial((0, 1)) * u
    with pytest.raises(ValueError):
        u.divide_hbar()


def test_substitute_identity_and_chain():
    R = ring1()
    u, u2 = R.u(), R.u(1, 2)
    f = u ** 3 / 6 + R.monomial(Q(1, 24), eps=2) * u * u2
    assert substitute(f, {1: u}) == f
    img = u + R.monomial(Q(1, 24), eps=2) * u2
    rng = random.Random(16)
    for _ in range(10):
        g = rand_poly(rng, R, allow_i=False)
        assert dx(substitute(g, {1: img})) == substitute(dx(g), {1: img})


@pytest.mark.parametrize("alpha", [0, 3])
def test_substitute_refuses_an_image_for_a_missing_variable(alpha):
    R = RingContext(n_vars=2)
    u1, u2 = R.u(1), R.u(2)
    with pytest.raises(ValueError, match=f"variable index {alpha} "):
        substitute(u1 * u2, {alpha: u1 ** 2})


def test_substitute_composition():
    R = ring1()
    u = R.u()
    a = u + R.monomial(Q(1, 2), eps=2) * R.u(1, 2)
    b = u + R.monomial(Q(1, 3), eps=2) * R.u(1, 1)
    rng = random.Random(17)
    for _ in range(8):
        f = rand_poly(rng, R, allow_i=False, n_terms=3)
        one_shot = substitute(substitute(f, {1: a}), {1: b})
        composed = substitute(f, {1: substitute(a, {1: b})})
        assert one_shot == composed


@settings(max_examples=150, deadline=None)
@given(data=st.data(), top=st.sampled_from([None, 0, 1]))
def test_substitute_window_is_sound(data, top):
    # a u-free term in an image lifts the unknown terms of f above top
    # to low u-degree, and an image's own unknown terms reach every term
    # of f that holds its letters; missing alphas keep the identity image.
    # A windowed image agrees with its image up to its cut and may keep
    # other terms above it, as a product's claim may sit below its terms
    R = RingContext(n_vars=2)
    small = poly_strategy(R, max_terms=4, max_k=1, max_pow=1, max_eps=1)

    def window(g):
        d = data.draw(st.sampled_from([None, 0, 1, 2]))
        if d is None:
            return g
        other = data.draw(small)
        return (g.truncate_u(d) + other - other.truncate_u(d)).with_exact_u(d)

    f = data.draw(small)
    images = {al: data.draw(small) + data.draw(st.sampled_from([1, -2, 0]))
              for al in data.draw(st.sets(st.sampled_from([1, 2]),
                                          min_size=1))}
    full = substitute(f, images)
    windowed = substitute(f if top is None else f.truncate_u(top),
                          {al: window(g) for al, g in images.items()})
    claim = windowed.exact_u
    if claim is None:
        assert windowed == full
    else:
        assert windowed.within_window() == full.truncate_u(claim)


def test_substitute_u_free_image_claims_nothing():
    R = ring1()
    u = R.u()
    images = {1: u + 1}
    windowed = substitute((u * u).truncate_u(1), images)
    assert windowed.exact_u == -1
    assert windowed.within_window().is_zero()
    assert substitute((u * u).truncate_u(1), {1: u * u}).exact_u == 3


def test_substitute_claims_no_more_than_an_image_cut():
    # the images keep terms of u-degree 2 above their cut 0, so their
    # least visible u-degree says nothing of the unknown images, which
    # may hold u^alpha: the unknown u^1 of f may land at u-degree 1
    R = RingContext(n_vars=2)
    u1, u2 = R.u(1), R.u(2)
    images = {1: (u1 * u1).with_exact_u(0), 2: (u2 * u2).with_exact_u(0)}
    windowed = substitute(u1.truncate_u(0), images)
    assert windowed.exact_u == 0
    assert windowed.within_window() == \
        substitute(u1, {1: u1, 2: u2}).truncate_u(0)


@settings(max_examples=100, deadline=None)
@given(f=poly_strategy(ring2q()))
def test_serialize_round_trip(f):
    doc = serialize(f)
    json.dumps(doc)  # must be plain JSON data
    assert parse(doc, f.ring) == f
    assert serialize(parse(doc)) == doc


def serialized_terms(f):
    """The terms of serialize(f) by the plain route: each key decoded with
    its parameters and letters sorted, the rows sorted, and each
    coefficient written through to_pair and qstr."""
    R = f.ring
    rows = []
    for key, v in f.terms.items():
        params = tuple(sorted((name, key >> at & MASK)
                              for name, at in R.param_at.items()
                              if key >> at & MASK))
        rows.append(((key >> EPS_AT & MASK, key >> HBAR_AT & MASK, params,
                      tuple(sorted(R.letters(key)))), v))
    terms = []
    for (e, h, p, fac), v in sorted(rows):
        re, im = to_pair(v)
        terms.append({"re": qstr(re), "im": qstr(im), "params": dict(p),
                      "eps": e, "hbar": h, "factors": [list(x) for x in fac]})
    return terms


@settings(max_examples=100, deadline=None)
@given(data=st.data(), R=st.sampled_from([
    ring2q(), RingContext(n_vars=3, params=("b", "a"), mode="quantum")]))
def test_serialize_writes_the_sorted_decoded_terms(data, R):
    # the parameters are declared out of name order in the second ring, and
    # the product gives terms carrying both
    polys = poly_strategy(R, max_terms=3)
    f = data.draw(polys)
    f = f + f * data.draw(polys)
    doc = serialize(f)
    assert doc["terms"] == serialized_terms(f)
    assert doc["ring"] == {"n_vars": R.n_vars, "params": list(R.params)}


def test_parse_drops_terms_outside_the_window():
    # u^3 is past the u-degree cutoff and claims it, eps u_1 is past the
    # genus cutoff and claims nothing: parse keeps what parse_pretty keeps
    R = RingContext(window=TruncationWindow(0, 2))
    free = ring1()
    f = free.u() ** 3 + free.monomial(1, eps=1, factors=((1, 1, 1),))
    for got in (parse(serialize(f), R), parse_pretty(pretty(f), R)):
        assert got.is_zero() and got.exact_u == 2
    got = parse(serialize(f + free.u()), R)
    assert got == R.u() and got.exact_u == 2
    assert parse(serialize(free.monomial(1, eps=1)), R).exact_u is None


def test_parse_checks_the_terms_it_drops():
    R = RingContext(window=TruncationWindow(0, 2))
    doc = serialize(ring1().u() ** 3)
    bad = json.loads(json.dumps(doc))
    bad["terms"][0]["re"] = "2/4"
    with pytest.raises(ParseError) as e:
        parse(bad, R)
    assert e.value.path == "$.terms[0].re"
    bad = json.loads(json.dumps(doc))
    bad["terms"].append(bad["terms"][0])
    with pytest.raises(ParseError, match="duplicate term key") as e:
        parse(bad, R)
    assert e.value.path == "$.terms[1]"


def test_monomial_past_the_u_cutoff_claims_it():
    R = RingContext(window=TruncationWindow(None, 2))
    for term in (R.monomial(1, factors=((1, 0, 3),)), R.u(1, 0, 3),
                 R.u() ** 3):
        assert term.is_zero() and term.exact_u == 2
    # a genus drop claims nothing
    G = RingContext(window=TruncationWindow(1, 2))
    assert G.monomial(1, eps=2, factors=((1, 0, 3),)).exact_u is None


@settings(max_examples=100, deadline=None)
@given(f=poly_strategy(ring2q(), max_pow=2),
       gc=st.one_of(st.none(), st.integers(0, 4)),
       uc=st.one_of(st.none(), st.integers(0, 4)))
def test_built_terms_are_sound(f, gc, uc):
    # whatever builds a term on a windowed ring (monomial, u, parse,
    # parse_pretty) keeps only terms inside the window, and its claim
    # covers the ones it dropped
    R = RingContext(n_vars=2, eta=[[0, 1], [1, 0]], params=("q",),
                    mode="quantum", window=TruncationWindow(gc, uc))
    built = [(parse(serialize(f), R), f), (parse_pretty(pretty(f), R), f)]
    for key, v in f.monomials():
        e, h, p, fac = key
        one = DiffPoly(f.ring, {f.ring.encode(*key): v})
        built.append((R.monomial(v, eps=e, hbar=h, params=p, factors=fac),
                      one))
        if len(fac) == 1:
            built.append((R.u(*fac[0]), f.ring.u(*fac[0])))
    for got, full in built:
        assert all((gc is None or key_genus(k) <= gc)
                   and (uc is None or key_udeg(k) <= uc)
                   for k, _ in got.monomials())
        assert dict(got.within_window().monomials()) == {
            k: v for k, v in full.monomials()
            if (gc is None or key_genus(k) <= gc)
            and (got.exact_u is None or key_udeg(k) <= got.exact_u)}


def test_parse_errors_carry_paths():
    R = ring1()
    with pytest.raises(ParseError) as e:
        parse({"ring": {"n_vars": 0}, "terms": []})
    assert "$.ring.n_vars" in str(e.value)
    with pytest.raises(ParseError) as e:
        parse({"ring": {"n_vars": 1, "params": ["a", "a"]}, "terms": []})
    assert e.value.path == "$.ring.params"
    good = {"ring": {"n_vars": 1, "params": []},
            "terms": [{"re": "1/2", "im": "0/1", "params": {}, "eps": 0,
                       "hbar": 0, "factors": [[1, 0, 2]]}]}
    assert parse(good, R) == R.u() ** 2 / 2
    bad = json.loads(json.dumps(good))
    bad["terms"][0]["re"] = "2/4"
    with pytest.raises(ParseError) as e:
        parse(bad, R)
    assert "$.terms[0].re" in str(e.value)
    bad = json.loads(json.dumps(good))
    bad["terms"][0]["factors"] = [[1, 0, 1], [1, 0, 1]]
    with pytest.raises(ParseError) as e:
        parse(bad, R)
    assert "factors" in str(e.value)
    bad = json.loads(json.dumps(good))
    bad["terms"][0]["hbar"] = 1
    with pytest.raises(ParseError):
        parse(bad, R)
    bad = json.loads(json.dumps(good))
    bad["terms"].append(dict(bad["terms"][0]))
    with pytest.raises(ParseError) as e:
        parse(bad, R)
    assert "$.terms[1]" in str(e.value)
    # JSON booleans are not ints: serialize would write them back, so the
    # document would not be in canonical form
    Rq = RingContext(n_vars=1, params=("q",))
    for field, value, path in [
            ("n_vars", True, "$.ring.n_vars"),
            ("eps", True, "$.terms[0].eps"),
            ("hbar", False, "$.terms[0].hbar"),
            ("factors", [[True, False, True]], "$.terms[0].factors[0]"),
            ("params", {"q": True}, "$.terms[0].params")]:
        bad = json.loads(json.dumps(good))
        bad["ring"]["params"] = ["q"]
        if field == "n_vars":
            bad["ring"][field] = value
        else:
            bad["terms"][0][field] = value
        for ring in (None, Rq):
            with pytest.raises(ParseError) as e:
                parse(bad, ring)
            assert path in str(e.value)
    with pytest.raises(ValueError):
        TruncationWindow(True)


def test_constructors_refuse_booleans():
    # the constructors take exponents and indices as parse does: a bool
    # stored in a key would serialize as a JSON boolean, which parse refuses
    with pytest.raises(ValueError):
        RingContext(n_vars=True)
    R = RingContext(n_vars=2, params=("q",), mode="quantum")
    for kwargs in [{"eps": True}, {"hbar": False},
                   {"factors": ((True, 0, 1),)},
                   {"factors": ((1, False, 1),)},
                   {"factors": ((1, 0, True),)},
                   {"params": (("q", True),)}]:
        with pytest.raises(ValueError):
            R.monomial(1, **kwargs)
    for args in [(True,), (1, False), (1, 0, True), (True, False, True)]:
        with pytest.raises(ValueError):
            R.u(*args)


def test_pretty_known_forms():
    R = ring1()
    u = R.u()
    u2 = R.u(1, 2)
    assert pretty(R.zero()) == "0"
    assert pretty(u ** 2 / 2) == "u^2/2"
    assert pretty(R.monomial(Q(1, 24), eps=2) * u2) == "(1/24) eps^2 u_2"
    assert pretty(-u) == "-u"
    RQ = ringq()
    c = RQ.monomial((0, Q(-1, 24)), hbar=1)
    assert pretty(c) == "-(1/24) i hbar"
    R2 = RingContext(n_vars=2)
    assert pretty(R2.u(2, 1) ** 3) == "u2_1^3"


@settings(max_examples=100, deadline=None)
@given(f=poly_strategy(ring2q()))
def test_pretty_round_trip(f):
    assert parse_pretty(pretty(f), f.ring) == f


@pytest.mark.parametrize("text, coeff, factors", [
    ("(1 + 2 i) i", (-2, 1), ()),
    ("i i u", (-1, 0), ((1, 0, 1),)),
    ("i i i u", (0, -1), ((1, 0, 1),)),
    ("(1 + 2 i) 3 u", (3, 6), ((1, 0, 1),)),
    ("-(1/2 - 3 i) i u^2/2", (Q(-3, 2), Q(-1, 4)), ((1, 0, 2),))])
def test_pretty_text_multiplies_every_unit_into_the_coefficient(
        text, coeff, factors):
    # each "i" and each bare rational multiplies the whole coefficient,
    # its imaginary part included
    R = ringq()
    assert parse_pretty(text, R) == R.monomial(coeff, factors=factors)


@pytest.mark.parametrize("text, term", [
    ("(1/2 u", 0), ("(1 + 2 i", 0), ("u^x", 0), ("eps^x u", 0),
    ("u_2/x", 0), ("u/0", 0), ("u^0", 0), ("u^-1", 0), ("u + u^x", 1),
    ("u + hbar u", 1), ("u2", 0), ("u^", 0), ("/2", 0), ("u\u00b2", 0)])
def test_malformed_pretty_text_raises_parse_error(text, term):
    with pytest.raises(ParseError) as e:
        parse_pretty(text, RingContext())
    assert e.value.path == f"term[{term}]"


PRETTY_TOKENS = ["u", "u1", "u2", "u_", "_", "^", "/", "(", ")", " + ",
                 " - ", "-", " ", "i", "eps", "hbar", "q", "0", "1", "2",
                 "12", "/0"]


@settings(deadline=None, max_examples=400)
@given(tokens=st.lists(st.sampled_from(PRETTY_TOKENS), max_size=10),
       ring=st.sampled_from([RingContext(),
                             RingContext(n_vars=2, params=("q",),
                                         mode="quantum")]))
def test_pretty_text_parses_or_raises_parse_error(tokens, ring):
    try:
        f = parse_pretty("".join(tokens), ring)
    except ParseError:
        return
    assert f.ring is ring


@pytest.mark.parametrize("name, ok", [
    ("mu", True), ("q", True), ("s1", True), ("s2", True), ("s3", True),
    ("_c", True), ("_j", True), ("u_", True), ("up", True),
    ("i", False), ("eps", False), ("hbar", False), ("u", False),
    ("u2", False), ("u_1", False), ("u2_3", False), ("", False),
    ("s 1", False), ("2s", False), (1, False)])
def test_parameter_names_the_text_formats_read_back(name, ok):
    # pretty and parse_pretty read i, eps, hbar and u-letter names as
    # themselves, and serialize writes names as text, so a ring refuses
    # those names and parse reports them at the ring header
    doc = {"ring": {"n_vars": 1, "params": [name]}, "terms": []}
    if not ok:
        with pytest.raises(ValueError):
            RingContext(params=(name,))
        with pytest.raises(ParseError) as e:
            parse(doc)
        assert e.value.path == "$.ring.params"
        return
    R = RingContext(params=(name,), mode="quantum")
    f = (R.param(name) * R.u() + R.monomial(Q(-2, 3), eps=1, hbar=1)
         + R.param(name) ** 2 * R.u(1, 2) ** 2)
    assert parse_pretty(pretty(f), R) == f
    assert parse(serialize(f), R) == f
    assert parse(doc).ring.params == (name,)
