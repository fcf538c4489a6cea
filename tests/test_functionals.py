import random

import pytest
from hypothesis import given, settings, strategies as st

from loophier.rat import Q
from loophier.errors import NotExact, WeightOneComponent, WeightZeroComponent
from loophier.ring import (RingContext, TruncationWindow, dx, dx_pow, euler_D,
                           partial)
from loophier.functionals import (var_deriv, LocalFunctional, integrate,
                                  dx_inverse, split_exact, reduce_density,
                                  d_minus_one_inverse, d_inverse)
from helpers import poly_strategy, rand_poly


def ring1():
    return RingContext(n_vars=1)


def test_var_deriv_basic():
    R = ring1()
    u, u1, u2 = R.u(), R.u(1, 1), R.u(1, 2)
    assert var_deriv(u ** 2 / 2, 1) == u
    assert var_deriv(u1 ** 2 / 2, 1) == -u2
    assert var_deriv(u * u2, 1) == 2 * u2
    # density for the cubic flow: u^3/6 + eps^2/24 u u_2
    h = u ** 3 / 6 + R.monomial(Q(1, 24), eps=2) * u * u2
    assert var_deriv(h, 1) == u ** 2 / 2 + R.monomial(Q(1, 12), eps=2) * u2


def test_var_deriv_kills_dx_images():
    rng = random.Random(21)
    R = RingContext(n_vars=2, eta=[[0, 1], [1, 0]], mode="quantum")
    for _ in range(20):
        f = rand_poly(rng, R)
        for a in (1, 2):
            assert var_deriv(dx(f), a).is_zero()


def test_dx_inverse_round_trip():
    rng = random.Random(22)
    R = RingContext(n_vars=2, eta=[[0, 1], [1, 0]], mode="quantum")
    for _ in range(20):
        f = rand_poly(rng, R)
        g = dx_inverse(dx(f))
        assert dx(g) == dx(f)


def test_dx_inverse_known():
    R = ring1()
    u, u1 = R.u(), R.u(1, 1)
    assert dx(dx_inverse(u * u1)) == u * u1
    assert dx_inverse(u * u1) == u ** 2 / 2
    with pytest.raises(NotExact):
        dx_inverse(u ** 2)
    with pytest.raises(NotExact):
        dx_inverse(u1 ** 2)
    with pytest.raises(NotExact):
        dx_inverse(R.one())


def test_split_exact_parts():
    R = ring1()
    u, u1, u2 = R.u(), R.u(1, 1), R.u(1, 2)
    f = dx(u ** 3) + u1 ** 2 + R.one() * Q(5)
    m, r, c = split_exact(f)
    assert dx(m) + r + c == f
    assert c == R.one() * 5
    assert var_deriv(r - u1 ** 2, 1).is_zero()
    # reduced form is stable under adding exact terms
    assert reduce_density(f + dx(u * u2)) == r


def test_reduce_density_canonical():
    rng = random.Random(23)
    R = ring1()
    for _ in range(20):
        f = rand_poly(rng, R)
        g = rand_poly(rng, R)
        assert reduce_density(f + dx(g)) == reduce_density(f)


def test_functional_equality():
    R = ring1()
    u, u1, u2 = R.u(), R.u(1, 1), R.u(1, 2)
    assert integrate(u * u2) == integrate(-u1 ** 2)
    assert integrate(u * u2 + R.one()) == integrate(-u1 ** 2)
    assert integrate(dx(u ** 5)).is_zero()
    assert not integrate(u ** 2) == integrate(u ** 3)
    F = integrate(u ** 3 / 6) + integrate(R.monomial(Q(1, 24), eps=2) * u * u2)
    assert F.var_deriv(1) == u ** 2 / 2 + R.monomial(Q(1, 12), eps=2) * u2


def test_a_functional_keeps_its_work_on_its_density():
    # the reduced density is kept on the density, and each variational
    # derivative on the reduced density, so two functionals of one density
    # share both
    R = ring1()
    u, u2 = R.u(), R.u(1, 2)
    d = u ** 3 / 6 + u * u2 + dx(u ** 2) + R.one()
    assert integrate(d).reduced() is integrate(d).reduced()
    F = integrate(d)
    assert F.var_deriv(1) is var_deriv(F.reduced(), 1)
    assert integrate(d).var_deriv(1) is F.var_deriv(1)


@pytest.mark.parametrize("make", [integrate, LocalFunctional])
def test_a_functional_needs_a_polynomial_density(make):
    # a functional of a functional, or of a scalar, is refused where it is
    # built, not in its repr or its first bracket
    F = integrate(ring1().u() ** 3)
    for bad, name in ((F, "LocalFunctional"), (3, "int"), (None, "NoneType")):
        with pytest.raises(TypeError, match=name):
            make(bad)


def test_functional_serialize_uses_reduced_density():
    R = ring1()
    u, u2 = R.u(), R.u(1, 2)
    a = integrate(u * u2).serialize()
    b = integrate(-R.u(1, 1) ** 2).serialize()
    assert a == b
    assert a["functional"] is True


def test_weight_inverses():
    R = RingContext(n_vars=1, mode="quantum")
    u = R.u()
    f = u ** 3 + R.monomial(1, eps=1) * u  # weights 3 and 2
    g = d_minus_one_inverse(f)
    assert euler_D(g) - g == f
    with pytest.raises(WeightOneComponent):
        d_minus_one_inverse(u)
    h = d_inverse(f)
    assert euler_D(h) == f
    with pytest.raises(WeightZeroComponent):
        d_inverse(R.one())
    # hbar counts twice in the weight
    q = R.monomial((0, 1), hbar=1)
    assert d_minus_one_inverse(q) == q


# -- laws, as properties over random polynomials ---------------------------

RINGS = {
    "scalar": RingContext(n_vars=1),
    "pair": RingContext(n_vars=2, eta=[[0, 1], [1, 0]], params=("q",),
                        mode="quantum"),
}
LAWS = settings(max_examples=60, deadline=None)
window = st.one_of(st.none(), st.integers(0, 4))


@pytest.mark.parametrize("name", sorted(RINGS))
@LAWS
@given(data=st.data(), exact_u=window, mixed=st.booleans())
def test_dx_inverse_raises_iff_obstructed(name, data, exact_u, mixed):
    # exact inputs, inexact ones, and windowed ones with junk above exact_u
    R = RINGS[name]
    g = data.draw(poly_strategy(R))
    h = data.draw(poly_strategy(R))
    f = (dx(g) + h if mixed else dx(g)).with_exact_u(exact_u)
    vd_zero = all(var_deriv(f, a).within_window().is_zero()
                  for a in range(1, R.n_vars + 1))
    obstructed = not f.constant_part().is_zero() or not vd_zero
    # the functional exactness test is the peel's, constants ignored
    assert LocalFunctional(f).is_zero() == vd_zero
    assert LocalFunctional(f) == LocalFunctional(f + dx(g))
    assert (LocalFunctional(f) == LocalFunctional(h)) == all(
        var_deriv(f - h, a).within_window().is_zero()
        for a in range(1, R.n_vars + 1))
    try:
        m = dx_inverse(f)
    except NotExact:
        assert obstructed
    else:
        assert not obstructed
        assert (dx(m) - f).within_window().is_zero()


@pytest.mark.parametrize("name", sorted(RINGS))
@LAWS
@given(data=st.data(), exact_u=st.integers(0, 4))
def test_var_deriv_window_is_sound(name, data, exact_u):
    # a windowed input agrees with the true density through exact_u and
    # carries junk above it; the claimed window of var_deriv must hold
    R = RINGS[name]
    true = data.draw(poly_strategy(R))
    junk = data.draw(poly_strategy(R))
    f = (true.truncate_u(exact_u) + junk
         - junk.truncate_u(exact_u)).with_exact_u(exact_u)
    for a in range(1, R.n_vars + 1):
        vd = var_deriv(f, a)
        want = var_deriv(true, a).with_exact_u(vd.exact_u).within_window()
        assert vd.within_window() == want, a


@pytest.mark.parametrize("name", sorted(RINGS))
@LAWS
@given(data=st.data(), exact_u=window,
       gc=st.one_of(st.none(), st.integers(0, 4)),
       uc=st.one_of(st.none(), st.integers(1, 4)))
def test_var_deriv_is_the_unrolled_sum(name, data, exact_u, gc, uc):
    # the Horner form equals sum_k (-1)^k dx^k(d f / d u^alpha_k), with
    # dx_pow as the reference, in its terms and in its exact_u
    base = RINGS[name]
    R = RingContext(n_vars=base.n_vars, eta=base.eta, params=base.params,
                    mode=base.mode, window=TruncationWindow(gc, uc))
    f = data.draw(poly_strategy(R)).with_exact_u(exact_u)
    for a in range(1, R.n_vars + 1):
        want = R.zero()
        for k in range(f.xorder_max() + 2):
            term = dx_pow(partial(f, a, k), k)
            want = want - term if k % 2 else want + term
        got = var_deriv(f, a)
        assert got.terms == want.terms
        assert got.exact_u == want.exact_u


@pytest.mark.parametrize("name", sorted(RINGS))
@LAWS
@given(data=st.data(), exact_u=window,
       gc=st.one_of(st.none(), st.integers(0, 4)),
       uc=st.one_of(st.none(), st.integers(1, 4)))
def test_var_deriv_of_a_density_is_that_of_its_reduced_density(
        name, data, exact_u, gc, uc):
    # var_deriv kills Im(dx) and constants term by term, and the peel keeps
    # exact_u, so a functional may read either one: the terms and the claim
    # agree
    base = RINGS[name]
    R = RingContext(n_vars=base.n_vars, eta=base.eta, params=base.params,
                    mode=base.mode, window=TruncationWindow(gc, uc))
    f = data.draw(poly_strategy(R)).with_exact_u(exact_u)
    r = reduce_density(f)
    for a in range(1, R.n_vars + 1):
        got, want = var_deriv(r, a), var_deriv(f, a)
        assert got.terms == want.terms
        assert got.exact_u == want.exact_u


@pytest.mark.parametrize("name", sorted(RINGS))
@LAWS
@given(data=st.data())
def test_split_exact_recomposes(name, data):
    f = data.draw(poly_strategy(RINGS[name]))
    m, r, c = split_exact(f)
    assert dx(m) + r + c == f
    assert c == f.constant_part()


@pytest.mark.parametrize("name", sorted(RINGS))
@LAWS
@given(data=st.data())
def test_reduce_density_is_idempotent(name, data):
    r = reduce_density(data.draw(poly_strategy(RINGS[name])))
    assert reduce_density(r) == r


@pytest.mark.parametrize("name", sorted(RINGS))
@LAWS
@given(data=st.data())
def test_dx_inverse_inverts_dx(name, data):
    dg = dx(data.draw(poly_strategy(RINGS[name])))
    assert dx(dx_inverse(dg)) == dg


@pytest.mark.parametrize("name", sorted(RINGS))
@LAWS
@given(data=st.data())
def test_var_deriv_kills_dx(name, data):
    R = RINGS[name]
    f = data.draw(poly_strategy(R))
    for a in range(1, R.n_vars + 1):
        assert var_deriv(dx(f), a).is_zero()
