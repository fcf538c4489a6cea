import math
import random

import pytest

from loophier.rat import Q
from loophier.errors import SingularAtEpsilonZero, ModeMismatch, ParseError
from loophier.ring import RingContext, TruncationWindow, partial, substitute
from loophier.functionals import LocalFunctional
from loophier.brackets import DiffOperator, HamiltonianOperator, poisson
from loophier.miura import (MiuraMap, push_operator, push_functional,
                            normal_miura, parse_miura, _eps_clip)
from loophier.presets import (build, ilw_miura_generator,
                              ilw_expected_miura_image,
                              ilw_expected_operator_coeffs)
from loophier.recursion import Hierarchy, HierarchySpec
from helpers import rand_poly


def scalar_ring(gc=None):
    return RingContext(n_vars=1, window=TruncationWindow(genus_cutoff=gc))


def pair(q):
    return (Q(q), Q(0))


# ---------------------------------------------------------------------------
# inversion


def test_invert_identity():
    ring = scalar_ring()
    m = MiuraMap.identity(ring)
    inv = m.invert(3)
    assert inv.images[1] == ring.u()


def test_invert_scaling():
    ring = scalar_ring()
    m = MiuraMap({1: ring.u().scale(pair(2))})
    inv = m.invert(0)
    assert inv.images[1] == ring.u().scale(pair(Q(1, 2)))


def test_invert_dispersive_perturbation():
    # utilde = u + eps^2 c u_2 inverts to u = ut - eps^2 c ut_2 + eps^4 c^2 ut_4
    ring = scalar_ring()
    c = Q(1, 24)
    m = MiuraMap({1: ring.u() + ring.monomial(c, eps=2, factors=((1, 2, 1),))})
    inv = m.invert(4)
    expected = (ring.u()
                - ring.monomial(c, eps=2, factors=((1, 2, 1),))
                + ring.monomial(c * c, eps=4, factors=((1, 4, 1),)))
    assert inv.images[1] == expected


def test_invert_roundtrip_both_ways():
    ring = scalar_ring()
    m = MiuraMap({1: ring.u()
                  + ring.monomial(Q(1, 3), eps=2, factors=((1, 1, 1),))
                  + ring.monomial(Q(2, 5), eps=2, factors=((1, 0, 2),))})
    inv = m.invert(6)
    there = substitute(m.images[1], inv.images)
    back = substitute(inv.images[1], m.images)
    keep = lambda f: {k: v for k, v in f.monomials() if k[0] <= 6}
    assert keep(there) == keep(ring.u())
    assert keep(back) == keep(ring.u())


def test_invert_two_component_linear_mix():
    ring = RingContext(n_vars=2)
    u1, u2 = ring.u(1), ring.u(2)
    m = MiuraMap({1: u1 + u2, 2: u1 - u2})
    inv = m.invert(0)
    half = pair(Q(1, 2))
    assert inv.images[1] == (u1 + u2).scale(half)
    assert inv.images[2] == (u1 - u2).scale(half)


def test_invert_cache_reused():
    ring = scalar_ring()
    m = MiuraMap({1: ring.u()
                  + ring.monomial(Q(1, 7), eps=2, factors=((1, 2, 1),))})
    a = m.invert(4)
    b = m.invert(2)
    assert a is b


def test_singular_linear_part_rejected():
    ring = RingContext(n_vars=2)
    m = MiuraMap({1: ring.u(1) + ring.u(2), 2: ring.u(1) + ring.u(2)})
    with pytest.raises(SingularAtEpsilonZero):
        m.invert(2)


def test_nonlinear_epsilon_free_part_rejected():
    ring = scalar_ring()
    m = MiuraMap({1: ring.u() + ring.u() ** 2})
    with pytest.raises(SingularAtEpsilonZero):
        m.invert(2)


# ---------------------------------------------------------------------------
# operator pushforward


def test_push_operator_identity_map():
    ring = scalar_ring()
    k = HamiltonianOperator.standard(ring)
    pk = push_operator(k, MiuraMap.identity(ring))
    assert pk == k


def test_push_operator_scaling():
    ring = scalar_ring()
    m = MiuraMap({1: ring.u().scale(pair(3))})
    pk = push_operator(HamiltonianOperator.standard(ring), m)
    assert pk.entry(1, 1) == DiffOperator.dx_power(ring, 1,
                                                   ring.const(Q(9)))


def test_push_operator_keeps_skew_shape():
    # first-order dispersive map: result stays odd-order in dx
    ring = scalar_ring(gc=4)
    m = MiuraMap({1: ring.u()
                  + ring.monomial(Q(1, 24), eps=2, factors=((1, 2, 1),))})
    pk = push_operator(HamiltonianOperator.standard(ring), m)
    assert set(pk.entry(1, 1).coeffs) <= {1, 3, 5}


def test_push_operator_unwindowed_needs_order():
    ring = scalar_ring()
    m = MiuraMap({1: ring.u()
                  + ring.monomial(Q(1, 24), eps=2, factors=((1, 2, 1),))})
    with pytest.raises(ValueError):
        push_operator(HamiltonianOperator.standard(ring), m)


def test_push_operator_group_law():
    ring = scalar_ring(gc=4)
    k = HamiltonianOperator.standard(ring)
    m1 = MiuraMap({1: ring.u()
                   + ring.monomial(Q(1, 5), eps=2, factors=((1, 2, 1),))})
    m2 = MiuraMap({1: ring.u()
                   + ring.monomial(Q(1, 3), eps=2, factors=((1, 0, 2),))})
    lhs = push_operator(push_operator(k, m1), m2)
    rhs = push_operator(k, m2.compose(m1))
    for j in set(lhs.entry(1, 1).coeffs) | set(rhs.entry(1, 1).coeffs):
        a = lhs.entry(1, 1).coeffs.get(j, ring.zero())
        b = rhs.entry(1, 1).coeffs.get(j, ring.zero())
        assert (a - b).within_window().is_zero(), j


def entrywise_push(k, m, order):
    """push_operator by its entrywise formula: entry (a, b) is the sum over
    mu, nu of L_{a mu} . K_{mu nu} . R_{nu b}, with the left leg
    L_{a mu} = sum_s d m_a / du^mu_s dx^s and the right leg
    R_{nu b} = sum_t (-dx)^t . d m_b / du^nu_t, every coefficient rewritten
    through the inverse map and cut to eps^order."""
    ring = m.ring
    inv = m.invert(order)
    n = ring.n_vars

    def leg(a, mu):
        g = m.images[a]
        return {s: partial(g, mu, s) for s in range(g.xorder_max() + 1)}

    def right(b, nu):
        out = DiffOperator(ring)
        for t, d in leg(b, nu).items():
            lead = ring.one() if t % 2 == 0 else -ring.one()
            out = out + DiffOperator.dx_power(ring, t, lead).compose(
                DiffOperator(ring, {0: d}))
        return out

    entries = {}
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            acc = DiffOperator(ring)
            for mu in range(1, n + 1):
                for nu in range(1, n + 1):
                    mid = k.entry(mu, nu)
                    if not mid.is_zero():
                        acc = acc + DiffOperator(ring, leg(a, mu)).compose(
                            mid).compose(right(b, nu))
            entries[(a, b)] = DiffOperator(ring, {
                j: _eps_clip(substitute(c, inv.images), order)
                for j, c in acc.coeffs.items()})
    return HamiltonianOperator(ring, entries)


def _random_map(rng, ring):
    eps = ring.monomial(1, eps=1)
    return MiuraMap({a: ring.u(a) + eps * rand_poly(
        rng, ring, 2, max_k=2, max_eps=1, max_hbar=0, allow_i=False,
        allow_params=False) for a in range(1, ring.n_vars + 1)}, ring=ring)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("window", [TruncationWindow(3),
                                    TruncationWindow(3, 4)],
                         ids=["genus", "genus-and-u-degree"])
def test_push_operator_is_the_entrywise_conjugation(n, window):
    rng = random.Random(12 + n)
    eta = [[1]] if n == 1 else [[0, 1], [1, 0]]
    ring = RingContext(n_vars=n, eta=eta, window=window)
    ks = [HamiltonianOperator.standard(ring), HamiltonianOperator(ring, {
        (mu, nu): DiffOperator(ring, {rng.randint(0, 2): rand_poly(
            rng, ring, 2, max_k=1, max_eps=1, max_hbar=0, allow_i=False,
            allow_params=False)})
        for mu in range(1, n + 1) for nu in range(1, n + 1)})]
    for _ in range(3):
        m = _random_map(rng, ring)
        for k in ks:
            got, want = push_operator(k, m), entrywise_push(k, m, 3)
            assert got == want
            # the claims agree too, on these maps
            assert {(key, j): c.exact_u for key, op in got.entries.items()
                    for j, c in op.coeffs.items()} == {
                (key, j): c.exact_u for key, op in want.entries.items()
                for j, c in op.coeffs.items()}


# ---------------------------------------------------------------------------
# functional pushforward


def test_push_functional_identity_map():
    ring = scalar_ring()
    h = LocalFunctional(ring.u() ** 2 / 2)
    assert push_functional(h, MiuraMap.identity(ring)) == h


def test_push_functional_scaling():
    ring = scalar_ring()
    m = MiuraMap({1: ring.u().scale(pair(2))})
    h = LocalFunctional(ring.u() ** 2 / 2)
    assert push_functional(h, m) == LocalFunctional(ring.u() ** 2 / 8)


def test_bracket_naturality():
    ring = scalar_ring(gc=4)
    k = HamiltonianOperator.standard(ring)
    m = MiuraMap({1: ring.u()
                  + ring.monomial(Q(1, 24), eps=2, factors=((1, 2, 1),))})
    h1 = LocalFunctional(ring.u() ** 3 / 6
                         + ring.monomial(Q(1, 24), eps=2) * ring.u()
                         * ring.u(1, 2))
    h2 = LocalFunctional(ring.u() ** 2 / 2)
    lhs = poisson(push_functional(h1, m), push_functional(h2, m),
                  push_operator(k, m))
    rhs = push_functional(poisson(h1, h2, k).density, m)
    assert lhs == rhs


def test_pushed_hamiltonians_still_commute():
    # dispersive map applied to the scalar hierarchy's first two levels
    h = Hierarchy(build("kdv", mode="classical", genus_cutoff=4))
    m = MiuraMap({1: h.ring.u()
                  + h.ring.monomial(Q(1, 24), eps=2, factors=((1, 2, 1),))})
    k = HamiltonianOperator.standard(h.ring)
    p1 = push_functional(h.functional(1, 1).density, m)
    p2 = push_functional(h.functional(1, 2).density, m)
    assert poisson(p1, p2, push_operator(k, m)).is_zero()


def test_random_functional_push_matches_substitution():
    rng = random.Random(11)
    ring = scalar_ring(gc=4)
    m = MiuraMap({1: ring.u()
                  + ring.monomial(Q(1, 6), eps=2, factors=((1, 2, 1),))})
    inv = m.invert(4)
    for _ in range(5):
        f = rand_poly(rng, ring, max_eps=2, max_hbar=0, allow_params=False)
        pushed = push_functional(f, m)
        direct = substitute(f, inv.images)
        assert pushed == LocalFunctional(direct)


# ---------------------------------------------------------------------------
# normal coordinate changes


def test_normal_miura_zero_generator_is_identity():
    h = Hierarchy(build("kdv", mode="classical", genus_cutoff=4))
    m, tau = normal_miura(h.ring.zero(), h)
    assert m == MiuraMap.identity(h.ring)
    assert tau.h(1, 0) == h.tau_density(1, 0)


def test_normal_miura_linear_generator():
    # F = eps^2 c u produces utilde = u + eps^2 c u_2
    h = Hierarchy(build("kdv", mode="classical", genus_cutoff=4))
    c = Q(1, 5)
    f = h.ring.monomial(c, eps=2, factors=((1, 0, 1),))
    m, tau = normal_miura(f, h)
    expected = h.ring.u() + h.ring.monomial(c, eps=2, factors=((1, 2, 1),))
    assert (m.images[1] - expected).within_window().is_zero()
    assert tau.normal_residual(1).is_zero()
    assert tau.symmetry_residual(1, 1, 1, 2).is_zero()


@pytest.mark.parametrize("gc", [None, 3])
def test_normal_miura_keeps_the_claim_of_a_clipped_bracket(gc):
    # The quartic generator's level-0 gradient is u^2/2, so every product
    # of the bracket {eps^2 u^4, h_0} has u-degree 5: under a u-degree
    # cutoff of 4 the bracket is a zero that claims 4, and the image must
    # keep that claim, since the true image has u-degree 5 terms.
    def image(window):
        ring = RingContext(mode="classical", n_vars=1, window=window)
        h = Hierarchy(HierarchySpec("quartic", ring, ring.u() ** 4 / 24))
        f = ring.monomial(Q(1), eps=2, factors=((1, 0, 4),))
        m, _ = normal_miura(f, h)
        return m.images[1]

    clipped = image(TruncationWindow(gc, 4))
    full = image(TruncationWindow(gc))
    assert clipped.exact_u == 4
    assert clipped.terms == full.truncate_u(4).terms
    assert full.udeg_max() == 5


def test_normal_miura_rejects_quantum():
    h = Hierarchy(build("kdv", mode="quantum", genus_cutoff=4))
    with pytest.raises(ModeMismatch):
        normal_miura(h.ring.zero(), h)


def test_normal_miura_rejects_wrong_weight():
    h = Hierarchy(build("kdv", mode="classical", genus_cutoff=4))
    with pytest.raises(ValueError):
        normal_miura(h.ring.u(), h)


def test_ilw_normal_miura_image():
    h = Hierarchy(build("ilw", mode="classical", genus_cutoff=6))
    f = ilw_miura_generator(h.ring, 6)
    m, tau = normal_miura(f, h)
    expected = ilw_expected_miura_image(h.ring, 6)
    assert (m.images[1] - expected).within_window().is_zero()
    assert tau.normal_residual(1).is_zero()


def test_ilw_pushed_operator():
    h = Hierarchy(build("ilw", mode="classical", genus_cutoff=6))
    f = ilw_miura_generator(h.ring, 6)
    m, _ = normal_miura(f, h)
    pk = push_operator(HamiltonianOperator.standard(h.ring), m)
    op = pk.entry(1, 1)
    want = {}
    for j, (q, g) in ilw_expected_operator_coeffs(6).items():
        params = (("mu", g),) if g else ()
        want[j] = h.ring.monomial(q, eps=j - 1, params=params)
    assert set(op.coeffs) == set(want)
    for j in want:
        assert (op.coeffs[j] - want[j]).within_window().is_zero(), j


def test_toda_normal_miura_image():
    # generator with signed even-zeta weights moves both components by the
    # same halving-coefficient series
    h = Hierarchy(build("toda", mode="classical"))
    ring = h.ring
    from loophier.rat import bernoulli
    f = ring.zero()
    series = {}
    for g in (1, 2):
        c = (Q(1 - 2 ** (2 * g - 1), 2 ** (2 * g - 1)) * bernoulli(2 * g)
             / Q(math.factorial(2 * g)))
        series[g] = c
        f = f + ring.monomial(c, eps=2 * g, factors=((2, 2 * g - 2, 1),))
    m, tau = normal_miura(f, h)
    assert series[1] == Q(-1, 24) and series[2] == Q(7, 5760)
    for alpha in (1, 2):
        expected = ring.u(alpha)
        for g in (1, 2):
            expected = expected + ring.monomial(
                series[g], eps=2 * g, factors=((alpha, 2 * g, 1),))
        assert (m.images[alpha] - expected).within_window().is_zero(), alpha
    for beta in (1, 2):
        assert tau.normal_residual(beta).is_zero(), beta


def test_transformed_tau_density_rule():
    # htilde(beta, q) minus h(beta, q) is a total derivative
    h = Hierarchy(build("kdv", mode="classical", genus_cutoff=4))
    f = h.ring.monomial(Q(1, 3), eps=2, factors=((1, 0, 1),))
    _, tau = normal_miura(f, h)
    from loophier.functionals import dx_inverse
    for q in (0, 1):
        diff = tau.h(1, q) - h.tau_density(1, q)
        dx_inverse(diff)


# ---------------------------------------------------------------------------
# serialization


def test_miura_roundtrip():
    ring = scalar_ring(gc=4)
    m = MiuraMap({1: ring.u()
                  + ring.monomial(Q(1, 24), eps=2, factors=((1, 2, 1),))})
    m.invert(4)
    doc = m.serialize()
    back = parse_miura(doc, ring)
    assert back == m
    assert back._inverse is not None
    assert back._inverse.images[1] == m._inverse.images[1]


def test_miura_parse_fresh_ring():
    ring = scalar_ring()
    m = MiuraMap({1: ring.u().scale(pair(2))})
    back = parse_miura(m.serialize())
    assert back.images[1].terms == m.images[1].terms


def _inverted_doc():
    ring = scalar_ring(gc=4)
    m = MiuraMap({1: ring.u()
                  + ring.monomial(Q(1, 24), eps=2, factors=((1, 2, 1),))})
    m.invert(4)
    return m.serialize(), ring


def test_miura_parse_rejects_bad_inverse_index():
    doc, ring = _inverted_doc()
    doc["inverse"]["images"]["one"] = doc["inverse"]["images"].pop("1")
    with pytest.raises(ParseError) as e:
        parse_miura(doc, ring)
    assert e.value.path == "$.inverse.images"


def test_miura_parse_rejects_bad_image_index():
    doc, ring = _inverted_doc()
    doc["images"]["one"] = doc["images"].pop("1")
    with pytest.raises(ParseError) as e:
        parse_miura(doc, ring)
    assert e.value.path == "$.images"


def test_miura_rejects_an_image_index_outside_the_ring():
    ring = scalar_ring()
    for alpha in (0, 2, 3):
        with pytest.raises(ValueError):
            MiuraMap({alpha: ring.u() ** 2}, ring=ring)
        with pytest.raises(ValueError):
            MiuraMap({1: ring.u(), alpha: ring.u() ** 2})


@pytest.mark.parametrize("where", ["images", "inverse"])
@pytest.mark.parametrize("first", [True, False])
@pytest.mark.parametrize("with_ring", [True, False])
def test_miura_parse_rejects_an_image_index_outside_the_ring(where, first,
                                                            with_ring):
    # an index past n_vars, read before or after index 1, and with or
    # without the ring given, is refused where it stands
    doc, ring = _inverted_doc()
    parent = doc if where == "images" else doc["inverse"]
    one = parent["images"]["1"]
    parent["images"] = {"2": one, "1": one} if first else {"1": one, "2": one}
    with pytest.raises(ParseError) as e:
        parse_miura(doc, ring if with_ring else None)
    assert e.value.path == ("$.images" if where == "images"
                            else "$.inverse.images")


@pytest.mark.parametrize("order", [-3, "x"])
def test_miura_parse_rejects_bad_eps_order(order):
    doc, ring = _inverted_doc()
    doc["inverse"]["eps_order"] = order
    with pytest.raises(ParseError) as e:
        parse_miura(doc, ring)
    assert e.value.path == "$.inverse.eps_order"
