import random
from itertools import permutations
from math import factorial, inf, prod

import pytest
from hypothesis import given, settings, strategies as st

from loophier import brackets
from loophier.rat import Q
from loophier.coeffs import as_coeff, to_pair
from loophier.errors import ContextMismatch, ModeMismatch
from loophier.ring import (MASK, UDEG_AT, DiffPoly, RingContext,
                           TruncationWindow, dx, dx_pow, emin, partial,
                           substitute)
from loophier.functionals import integrate, dx_inverse, d_minus_one_inverse
from loophier.brackets import (DiffOperator, HamiltonianOperator, jacobian,
                               polylog_product_coeffs, contraction_row,
                               poisson_local, poisson, star_commutator_local,
                               star_commutator, _kernel)
from loophier import recursion, ring as ring_module
from loophier.ansatz import AnsatzProblem, solve_dr_type
from loophier.presets import rank1, toda
from loophier.recursion import Hierarchy
from helpers import key_genus, key_udeg, poly_strategy, rand_poly


def kdv_ring():
    return RingContext(n_vars=1)


def kdv_chain(R):
    u, u2 = R.u(), R.u(1, 2)
    e2 = R.monomial(Q(1, 24), eps=2)
    return u ** 3 / 6 + e2 * u * u2


# ---------------------------------------------------------------------------
# contraction kernel


def rational_row(row):
    """A kernel row {j: coefficient triple} as {j: rational}; every entry
    is real."""
    pairs = {j: to_pair(c) for j, c in row.items()}
    assert all(im == 0 for _, im in pairs.values())
    return {j: re for j, (re, _) in pairs.items()}


def test_polylog_product_known_row():
    assert polylog_product_coeffs((1, 1)) == {1: as_coeff(Q(-1, 6)),
                                              3: as_coeff(Q(1, 6))}
    assert polylog_product_coeffs((2,)) == {2: as_coeff(1)}


# n <= 2 factors up to d = 14 and three up to d = 8: the range the
# genus-3 ansatz slice reaches
polylog_factors = st.one_of(
    st.lists(st.integers(1, 14), min_size=1, max_size=2),
    st.lists(st.integers(1, 8), min_size=3, max_size=3)).map(tuple)


@settings(deadline=None, max_examples=60)
@given(polylog_factors)
def test_polylog_product_is_an_identity_beyond_fit(ds):
    # the expansion reproduces the coefficient of z^k of prod Li_{-d}(z),
    # the sum over compositions of k, at every k through three past its
    # degree m, so it is a polynomial identity in k
    row = rational_row(polylog_product_coeffs(ds))
    m = sum(ds) + len(ds) - 1
    assert list(row) == sorted(row) and all(1 <= j <= m for j in row)
    for k in range(1, m + 4):
        conv = sum(prod(p ** d for p, d in zip(parts, ds))
                   for parts in _compositions(k, len(ds)))
        assert sum(c * k ** j for j, c in row.items()) == conv


def _compositions(total, n):
    if n == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - n + 2):
        for rest in _compositions(total - first, n - 1):
            yield (first,) + rest


def test_contraction_row_signs_and_parity():
    assert rational_row(contraction_row((1, 1))) == {1: Q(1, 6), 3: Q(1, 6)}
    assert rational_row(contraction_row((1,))) == {1: Q(1)}
    assert rational_row(contraction_row((4,))) == {4: Q(1)}
    rng = random.Random(42)
    for _ in range(6):
        a = tuple(sorted(rng.randint(1, 4) for _ in range(rng.randint(1, 3))))
        row = contraction_row(a)
        tot = len(a) - 1 + sum(a)
        for j in row:
            assert (tot - j) % 2 == 0
            assert 1 <= j <= tot


# ---------------------------------------------------------------------------
# operators


def test_standard_operator_entries():
    R = RingContext(n_vars=2, eta=[[0, 1], [1, 0]])
    K = HamiltonianOperator.standard(R)
    assert (1, 1) not in K.entries
    op = K.entry(1, 2)
    assert op.coeffs.keys() == {1}
    u = R.u(1)
    assert op.apply(u ** 2) == 2 * u * R.u(1, 1)


def test_operator_compose_matches_apply():
    rng = random.Random(43)
    R = RingContext(n_vars=1)
    for _ in range(10):
        a = DiffOperator(R, {0: rand_poly(rng, R, 2, allow_i=False),
                             2: rand_poly(rng, R, 2, allow_i=False)})
        b = DiffOperator(R, {1: rand_poly(rng, R, 2, allow_i=False),
                             3: rand_poly(rng, R, 2, allow_i=False)})
        p = rand_poly(rng, R, 2, allow_i=False)
        assert a.compose(b).apply(p) == a.apply(b.apply(p))


def test_operator_matrix_compose():
    rng = random.Random(44)
    R = RingContext(n_vars=2, eta=[[0, 1], [1, 0]])
    ops = {}
    for mu in (1, 2):
        for nu in (1, 2):
            ops[(mu, nu)] = DiffOperator(
                R, {rng.randint(0, 2): rand_poly(rng, R, 2, allow_i=False)})
    A = HamiltonianOperator(R, ops)
    B = HamiltonianOperator.standard(R)
    vec = {1: rand_poly(rng, R, 2, allow_i=False),
           2: rand_poly(rng, R, 2, allow_i=False)}
    lhs = A.compose(B).apply(vec)
    step = B.apply(vec)
    rhs = A.apply(step)
    for mu in (1, 2):
        assert lhs.get(mu, R.zero()) == rhs.get(mu, R.zero())


PAIRINGS = [None, [[0, 1], [1, 0]], [[1, (0, 1)], [(0, 1), 0]]]


def dense_apply(op, p):
    """The reference action of a DiffOperator in DiffPoly arithmetic: the
    sum of a_j * dx^j(p) with +."""
    out = op.ring.zero()
    for j, a in sorted(op.coeffs.items()):
        out = out + a * dx_pow(p, j)
    return out


def _operators(R, polys, max_j=3):
    return st.dictionaries(st.integers(0, max_j), polys, max_size=3).map(
        lambda coeffs: DiffOperator(R, coeffs))


def _exact_us():
    return st.one_of(st.none(), st.integers(0, 4))


@settings(deadline=None, max_examples=100)
@given(data=st.data(), gc=st.one_of(st.none(), st.integers(0, 6)),
       uc=st.one_of(st.none(), st.integers(1, 5)),
       eta=st.sampled_from(PAIRINGS))
def test_operator_apply_is_the_sum_of_its_products(data, gc, uc, eta):
    # both applications form their products in one term dict and claim the
    # least of their claims, as adding up DiffPoly products does
    n = 1 if eta is None else 2
    R = RingContext(n_vars=n, eta=eta, window=TruncationWindow(gc, uc))
    polys = st.builds(lambda p, e: p.with_exact_u(e),
                      poly_strategy(R, max_terms=3, max_k=2, max_pow=2),
                      _exact_us())
    op = data.draw(_operators(R, polys))
    # a windowed zero keeps its claim through DiffOperator.apply
    for p in (data.draw(polys), R.zero().with_exact_u(data.draw(_exact_us()))):
        out, want = op.apply(p), dense_apply(op, p)
        assert out.terms == want.terms
        assert out.exact_u == want.exact_u
    K = HamiltonianOperator(R, {(mu, nu): data.draw(_operators(R, polys))
                                for mu in range(1, n + 1)
                                for nu in range(1, n + 1)})
    vec = {nu: data.draw(polys) for nu in range(1, n + 1)}
    rows = K.apply(vec)
    # an exact zero vec[nu] reaches no row
    want = {}
    for (mu, nu), entry in K.entries.items():
        if vec[nu].terms or vec[nu].exact_u is not None:
            want[mu] = want.get(mu, R.zero()) + dense_apply(entry, vec[nu])
    assert rows.keys() == want.keys()
    for mu, row in rows.items():
        assert row.terms == want[mu].terms
        assert row.exact_u == want[mu].exact_u


_OTHER_RINGS = {
    "coefficient and operand": lambda R, S, T: DiffOperator(
        R, {1: R.u()}).apply(S.u() * S.param("q")),
    "row and covector": lambda R, S, T: HamiltonianOperator.standard(
        R).apply({1: T.u(2)}),
    "matrix and entry": lambda R, S, T: HamiltonianOperator(
        R, {(1, 1): DiffOperator(S, {1: S.u()})}),
}


@pytest.mark.parametrize("case", sorted(_OTHER_RINGS))
def test_an_operator_refuses_a_polynomial_from_another_ring(case):
    R, S, T = RingContext(), RingContext(params=("q",)), RingContext(n_vars=2)
    with pytest.raises(ContextMismatch):
        _OTHER_RINGS[case](R, S, T)


@settings(deadline=None, max_examples=60)
@given(data=st.data(), eta=st.sampled_from(PAIRINGS))
def test_operator_adjoint_moves_the_operator_across_the_pairing(data, eta):
    # integrate(a . K b) = integrate(K^dagger a . b), and the adjoint of the
    # adjoint is the operator
    n = 1 if eta is None else 2
    R = RingContext(n_vars=n, eta=eta)
    polys = poly_strategy(R, max_terms=2, max_k=2, max_pow=2)
    L = data.draw(_operators(R, polys))
    a, b = data.draw(polys), data.draw(polys)
    assert integrate(a * L.apply(b)) == integrate(L.adjoint().apply(a) * b)
    assert L.adjoint().adjoint() == L
    K = HamiltonianOperator(R, {(mu, nu): data.draw(_operators(R, polys, 2))
                                for mu in range(1, n + 1)
                                for nu in range(1, n + 1)})
    va = {mu: data.draw(polys) for mu in range(1, n + 1)}
    vb = {mu: data.draw(polys) for mu in range(1, n + 1)}

    def pairing(x, y):
        return integrate(sum((x.get(mu, R.zero()) * y.get(mu, R.zero())
                              for mu in range(1, n + 1)), R.zero()))

    assert pairing(va, K.apply(vb)) == pairing(K.adjoint().apply(va), vb)
    assert K.adjoint().adjoint() == K


@settings(deadline=None, max_examples=60)
@given(data=st.data(), eta=st.sampled_from(PAIRINGS),
       letter=st.tuples(st.integers(1, 2), st.integers(0, 3)))
def test_jacobian_is_the_frechet_derivative(data, eta, letter):
    n = 1 if eta is None else 2
    R = RingContext(n_vars=n, eta=eta)
    polys = poly_strategy(R, max_terms=3, max_k=2, max_pow=2)
    f, g = data.draw(polys), data.draw(polys)
    v = {mu: data.draw(polys) for mu in range(1, n + 1)}

    def J(p):
        return jacobian({1: p}).apply(v).get(1, R.zero())

    # Leibniz: J_{fg} v = f J_g v + g J_f v
    assert J(f * g) == f * J(g) + g * J(f)
    # the derivative of u^mu_s takes v to dx^s(v_mu)
    mu, s = min(letter[0], n), letter[1]
    assert J(R.u(mu, s)) == dx_pow(v[mu], s)


# ---------------------------------------------------------------------------
# classical bracket


def test_cubic_flow_values():
    R = kdv_ring()
    u, u1, u2, u3, u5 = R.u(), R.u(1, 1), R.u(1, 2), R.u(1, 3), R.u(1, 5)
    H = integrate(kdv_chain(R))
    g0 = u * u / 2 + R.monomial(Q(1, 24), eps=2) * u2
    flow = poisson_local(g0, H)
    assert flow == (u * u * u1
                    + R.monomial(Q(1, 8), eps=2) * (u * u3 + u1 * u2)
                    + R.monomial(Q(1, 288), eps=4) * u5)
    g1 = d_minus_one_inverse(dx_inverse(flow))
    assert g1 == (u ** 3 / 6 + R.monomial(Q(1, 24), eps=2) * u * u2
                  + R.monomial(Q(1, 1152), eps=4) * R.u(1, 4))


def test_bracket_is_class_invariant_in_g():
    rng = random.Random(45)
    R = kdv_ring()
    for _ in range(10):
        f = rand_poly(rng, R, allow_i=False)
        g = rand_poly(rng, R, allow_i=False)
        extra = dx(rand_poly(rng, R, allow_i=False)) + R.one() * 3
        assert poisson_local(f, integrate(g)) == \
            poisson_local(f, integrate(g + extra))


def test_bracket_leibniz_in_density_slot():
    rng = random.Random(46)
    R = kdv_ring()
    for _ in range(10):
        f = rand_poly(rng, R, 3, allow_i=False)
        g = rand_poly(rng, R, 3, allow_i=False)
        h = integrate(rand_poly(rng, R, 3, allow_i=False))
        assert poisson_local(f * g, h) == \
            f * poisson_local(g, h) + poisson_local(f, h) * g


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_functional_bracket_antisymmetry(data):
    R = RingContext(n_vars=2, eta=[[2, 1], [1, 1]])
    polys = poly_strategy(R, max_terms=3, max_k=2, max_pow=2)
    F, G = integrate(data.draw(polys)), integrate(data.draw(polys))
    assert (poisson(F, G) + poisson(G, F)).is_zero()


@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_functional_bracket_jacobi(data):
    R = kdv_ring()
    polys = poly_strategy(R, max_terms=2, max_k=2, max_pow=2, max_eps=1)
    F, G, H = (integrate(data.draw(polys)) for _ in range(3))
    s = poisson(poisson(F, G), H) + poisson(poisson(G, H), F) \
        + poisson(poisson(H, F), G)
    assert s.is_zero()


def test_classical_degree_shift():
    R = kdv_ring()
    u = R.u()
    f = u * R.u(1, 2)           # degree 2
    G = integrate(u ** 3)       # degree 0
    out = poisson_local(f, G)
    assert not out.is_zero()
    assert out.degree() == 3    # deg f + deg G + 1


# ---------------------------------------------------------------------------
# quantum bracket


def quantum_kdv(R):
    u, u2 = R.u(), R.u(1, 2)
    return (u ** 3 / 6 + R.monomial(Q(1, 24), eps=2) * u * u2
            + R.monomial((0, Q(-1, 24)), hbar=1) * u)


def test_star_requires_quantum_ring():
    R = kdv_ring()
    with pytest.raises(ModeMismatch):
        star_commutator_local(R.u(), integrate(R.u() ** 2))


def test_order_one_star_is_poisson():
    R = RingContext(n_vars=1, mode="quantum")
    u = R.u()
    out = star_commutator_local(u, integrate(u * u / 2))
    assert out == R.monomial(1, hbar=1) * R.u(1, 1)


def test_quantum_recursion_step_matches_table():
    R = RingContext(n_vars=1, mode="quantum")
    u, u2, u4 = R.u(), R.u(1, 2), R.u(1, 4)
    H = integrate(quantum_kdv(R))
    G0 = (u * u / 2 + R.monomial(Q(1, 24), eps=2) * u2
          + R.monomial((0, Q(-1, 24)), hbar=1))
    b = star_commutator_local(G0, H).divide_hbar()
    G1 = d_minus_one_inverse(dx_inverse(b))
    expected = (u ** 3 / 6 + R.monomial(Q(1, 24), eps=2) * u * u2
                + R.monomial(Q(1, 1152), eps=4) * u4
                + R.monomial((0, Q(-1, 24)), hbar=1) * (u + u2))
    assert G1 == expected


def test_classical_limit_of_star():
    # the order-hbar part of the commutator is the Poisson bracket of the
    # hbar-free parts
    rng = random.Random(49)
    R = RingContext(n_vars=1, mode="quantum")
    for _ in range(8):
        f = rand_poly(rng, R, 3)
        g = rand_poly(rng, R, 3)
        lim = star_commutator_local(f, integrate(g)).divide_hbar().hbar_zero()
        want = poisson_local(f.hbar_zero(), integrate(g.hbar_zero()))
        assert lim == want


def test_star_functional_antisymmetry():
    rng = random.Random(50)
    R = RingContext(n_vars=2, eta=[[0, 1], [1, 0]], mode="quantum")
    for _ in range(6):
        F = integrate(rand_poly(rng, R, 3).truncate_u(3))
        G = integrate(rand_poly(rng, R, 3).truncate_u(3))
        assert (star_commutator(F, G) + star_commutator(G, F)).is_zero()


def test_star_top_degree():
    R = RingContext(n_vars=1, mode="quantum")
    u = R.u()
    f = u * R.u(1, 2)     # degree 2
    G = integrate(u ** 3)  # degree 0
    out = star_commutator_local(f, G)
    assert not out.is_zero()
    assert out.top_degree() == 1  # deg f + deg G - 1


def test_multivariable_star_order_one():
    R = RingContext(n_vars=2, eta=[[0, 1], [1, 0]], mode="quantum")
    u1 = R.u(1)
    out = star_commutator_local(u1, integrate(u1 * R.u(2)))
    assert out == R.monomial(1, hbar=1) * R.u(1, 1)


# ---------------------------------------------------------------------------
# laws of the star commutator, on drawn polynomials

QUANTUM_RINGS = {
    "scalar": RingContext(n_vars=1, mode="quantum"),
    "pair": RingContext(n_vars=2, eta=[[0, 1], [1, 0]], mode="quantum"),
}


@pytest.mark.parametrize("name", sorted(QUANTUM_RINGS))
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_divided_star_is_the_star_divided_by_hbar(name, data):
    R = QUANTUM_RINGS[name]
    polys = poly_strategy(R, max_terms=3, max_k=2, max_pow=1, max_eps=1)
    f, g = data.draw(polys), data.draw(polys)
    assert star_commutator_local(f, g, divided=True) == \
        star_commutator_local(f, g).divide_hbar()


# a pairing with imaginary entries: contraction scalars multiply as
# Gaussian rationals, not as rationals
COMPLEX_ETA = RingContext(n_vars=2, eta=[[1, (0, 1)], [(0, 1), 0]],
                          mode="quantum")


@pytest.mark.parametrize("R", [*QUANTUM_RINGS.values(), COMPLEX_ETA],
                         ids=[*QUANTUM_RINGS, "complex"])
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_star_at_order_hbar_is_the_poisson_bracket(R, data):
    # the classical limit, as test_classical_limit_of_star, on drawn
    # polynomials
    polys = poly_strategy(R, max_terms=3, max_k=2, max_pow=1, max_eps=1)
    f, g = data.draw(polys), data.draw(polys)
    lim = star_commutator_local(f, integrate(g)).divide_hbar().hbar_zero()
    assert lim == poisson_local(f.hbar_zero(), integrate(g.hbar_zero()))


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_star_is_antisymmetric_under_a_complex_pairing(data):
    polys = poly_strategy(COMPLEX_ETA, max_terms=3, max_k=2, max_pow=1,
                          max_eps=1)
    F, G = integrate(data.draw(polys)), integrate(data.draw(polys))
    assert (star_commutator(F, G) + star_commutator(G, F)).is_zero()


# ---------------------------------------------------------------------------
# the star commutator under a truncation window

def _up_to(terms, gc, top):
    """The terms of genus at most gc and u-degree at most top (None is
    unbounded)."""
    return {k: v for k, v in terms.items() if key_genus(k) <= gc
            and (top is None or key_udeg(k) <= top)}


def _windowed_operands(R):
    # u-free operands give a zero bracket, and most drawn polynomials of a
    # small window are u-free
    return poly_strategy(R, max_terms=3, max_k=2, max_pow=1,
                         max_eps=2).filter(lambda p: p.udeg_max() > 0)


@pytest.mark.parametrize("divided", [False, True])
@settings(deadline=None, max_examples=150)
@given(data=st.data(), gc=st.integers(0, 6),
       uc=st.one_of(st.none(), st.integers(1, 5)),
       eta=st.sampled_from(PAIRINGS))
def test_windowed_star_is_the_full_star_truncated(divided, data, gc, uc, eta):
    # the genus budget of each contraction order only skips terms that the
    # window would drop, and the claim covers the terms the window dropped
    n = 1 if eta is None else 2
    R = RingContext(n_vars=n, eta=eta, mode="quantum",
                    window=TruncationWindow(gc, uc))
    full = RingContext(n_vars=n, eta=eta, mode="quantum")
    f, g = data.draw(_windowed_operands(R)), data.draw(_windowed_operands(R))
    out = star_commutator_local(f, g, divided)
    want = dict(star_commutator_local(DiffPoly(full, f.terms),
                                      DiffPoly(full, g.terms),
                                      divided).monomials())
    assert dict(out.monomials()) == _up_to(want, gc, uc)
    assert dict(out.within_window().monomials()) == _up_to(want, gc,
                                                           out.exact_u)


@pytest.mark.parametrize("divided", [False, True])
@settings(deadline=None, max_examples=40)
@given(data=st.data(), gc=st.one_of(st.none(), st.integers(0, 6)),
       uc=st.one_of(st.none(), st.integers(1, 5)),
       eta=st.sampled_from(PAIRINGS),
       exact=st.one_of(st.none(), st.integers(1, 4)),
       divided_first=st.booleans())
def test_star_on_warm_operands_is_the_star_on_fresh_copies(divided, data, gc,
                                                           uc, eta, exact,
                                                           divided_first):
    # an operand's multiset derivatives are memoised on it, and each dx^j
    # of one on the polynomial it differentiates;
    # warmed by other partners, first to a lower order, then at both genus
    # budgets in either order (divided=False cuts lower than True), they
    # must serve each call as fresh copies of the operands would
    n = 1 if eta is None else 2
    R = RingContext(n_vars=n, eta=eta, mode="quantum",
                    window=TruncationWindow(gc, uc))
    operands = _windowed_operands(R)
    f = data.draw(operands).with_exact_u(exact)
    g, h = data.draw(operands), data.draw(operands)

    def assert_as_fresh(p, q, div):
        out = star_commutator_local(p, q, div)
        want = star_commutator_local(DiffPoly(R, dict(p.terms), p.exact_u),
                                     DiffPoly(R, dict(q.terms), q.exact_u),
                                     div)
        assert out.terms == want.terms
        assert out.exact_u == want.exact_u

    for other in (R.u(n), h):
        for warm_divided in (divided_first, not divided_first):
            for p in (f, g):
                assert_as_fresh(p, other, warm_divided)
                assert_as_fresh(other, p, warm_divided)
    assert_as_fresh(f, g, divided)


def test_a_chain_cut_for_a_lower_budget_does_not_serve_a_higher_one():
    # g's u_1-derivative 2 u u_1 + 2 eps^2 u u_1 is cut to 2 u u_1 under
    # the genus budget 0 of divided=False, and is needed whole under the
    # budget 2 of divided=True
    R = RingContext(n_vars=1, mode="quantum", window=TruncationWindow(2))
    u, u1 = R.u(1), R.u(1, 1)
    g = u * u1 ** 2 + R.monomial(1, eps=2) * u * u1 ** 2
    want = star_commutator_local(u, DiffPoly(R, dict(g.terms)), True)
    assert any(key_genus(k) == 2 for k, _ in want.monomials())
    star_commutator_local(u, g)
    out = star_commutator_local(u, g, True)
    assert (out.terms, out.exact_u) == (want.terms, want.exact_u)


def test_kernels_are_not_shared_between_pairings(monkeypatch):
    # (mf, mg) = (u^1, u^1) has a zero kernel under the off-diagonal
    # pairing and a nonzero one under the identity, in either order
    swap = RingContext(n_vars=2, eta=[[0, 1], [1, 0]], mode="quantum")
    ident = RingContext(n_vars=2, eta=[[1, 0], [0, 1]], mode="quantum")
    cases = [(swap, swap.zero()),
             (ident, ident.monomial(2, hbar=1, factors=((1, 1, 1),)))]
    for order in (cases, cases[::-1]):
        monkeypatch.setattr(brackets, "_KERNELS", {})
        for R, want in order:
            assert star_commutator_local(R.u(1), R.u(1) ** 2) == want


def test_star_builds_each_tower_and_kernel_once(monkeypatch):
    # the quantum Toda hierarchy puts a few functionals into many
    # commutators: no tower level is derived twice, no polynomial is
    # differentiated twice, and each (eta, mf, mg) kernel is
    # summed at most once: a kernel miss stores the kernel it sums
    partials, dxs, misses = [], [], []
    real_partial, real_dx = brackets.partial, dx

    class Table(dict):
        # the kernels of one pairing, recording each one stored
        def __setitem__(self, key, kernel):
            misses.append((self.eta, key))
            super().__setitem__(key, kernel)

    class Tables(dict):
        def setdefault(self, eta, _):
            if eta not in self:
                self[eta] = Table()
                self[eta].eta = eta
            return self[eta]

    def counted_partial(p, al, k):
        partials.append((p, al, k))
        return real_partial(p, al, k)

    def counted_dx(p):
        dxs.append(p)
        return real_dx(p)

    monkeypatch.setattr(brackets, "partial", counted_partial)
    monkeypatch.setattr("loophier.ring.dx", counted_dx)
    monkeypatch.setattr(brackets, "_KERNELS", Tables())
    Hierarchy(toda(mode="quantum")).generate(2).report(1)
    assert partials and dxs and misses
    # the lists keep every input alive, so no id is reused
    assert len({(id(p), al, k) for p, al, k in partials}) == len(partials)
    assert len({id(p) for p in dxs}) == len(dxs)
    assert len(set(misses)) == len(misses)


def test_quantum_toda_verify_work_is_bounded(monkeypatch):
    # work, not time: the dx calls, the terms they receive and the
    # products mul_sum forms inside the window are exact counts, the same
    # on any host and under any PYTHONHASHSEED; the bounds are the counts
    # with each functional read through its reduced density
    spec = toda(mode="quantum")
    dx_terms, products = [], []
    real_dx, real_mul_sum = dx, ring_module.mul_sum

    def counted_dx(p):
        dx_terms.append(len(p.terms))
        return real_dx(p)

    def counted_mul_sum(pairs, gc, uc):
        for a, b, hbar in pairs:
            groom = inf if gc is None else gc - 2 * hbar
            uroom = inf if uc is None else uc
            products.append(sum(
                1 for k1 in a for k2 in b
                if (k1 & MASK) + (k2 & MASK) <= groom
                and (k1 >> UDEG_AT & MASK) + (k2 >> UDEG_AT & MASK) <= uroom))
        return real_mul_sum(pairs, gc, uc)

    monkeypatch.setattr("loophier.ring.dx", counted_dx)
    monkeypatch.setattr(ring_module, "mul_sum", counted_mul_sum)
    Hierarchy(spec).generate(2).report(1)
    assert len(dx_terms) <= 125
    assert sum(dx_terms) <= 1066
    assert sum(products) <= 3479


def test_quantum_toda_verify_builds_a_cut_tower(monkeypatch):
    # work, not time: an order-n partial is cut to the largest genus
    # budget of order n as the tower builds it, so the partials of the
    # next order see only terms some call can read; the bounds are the
    # counts with the cut (220 calls and 5,139 terms without it)
    terms = []
    real_partial = brackets.partial

    def counted_partial(p, al, k):
        terms.append(len(p.terms))
        return real_partial(p, al, k)

    monkeypatch.setattr(brackets, "partial", counted_partial)
    Hierarchy(toda(mode="quantum")).generate(2).report(1)
    assert len(terms) <= 182
    assert sum(terms) <= 4275


@settings(deadline=None, max_examples=60)
@given(data=st.data(), gc=st.integers(0, 6),
       uc=st.one_of(st.none(), st.integers(1, 5)),
       eta=st.sampled_from(PAIRINGS), divided=st.booleans())
def test_each_tower_entry_lies_within_its_order_budget(data, gc, uc, eta,
                                                       divided):
    # an order-n entry of either operand's tower is nonzero, records its
    # least genus and has genus at most gc - 2(n - 1), the largest budget
    # any call gives order n
    n = 1 if eta is None else 2
    R = RingContext(n_vars=n, eta=eta, mode="quantum",
                    window=TruncationWindow(gc, uc))
    f, g = data.draw(_windowed_operands(R)), data.draw(_windowed_operands(R))
    star_commutator_local(f, g, divided)
    for p in (f, g):
        for order, level in enumerate(p._tower[1:], 1):
            for _, d, low, _ in level:
                assert d.terms
                assert min(key_genus(k) for k, _ in d.monomials()) == low
                assert max(key_genus(k) for k, _ in d.monomials()) <= (
                    gc - 2 * (order - 1))


def test_operators_differentiate_each_chain_link_once(monkeypatch):
    # the two entries of column 1 share the dx^j of vec[1], compose those
    # of each coefficient of other, and substitute those of each image:
    # each is differentiated as far as its largest order, once per step
    dxs = []

    def counted_dx(p):
        dxs.append(p)
        return dx(p)

    monkeypatch.setattr("loophier.ring.dx", counted_dx)
    R = RingContext(n_vars=2, eta=[[0, 1], [1, 0]])
    u1, u2 = R.u(1), R.u(2)
    K = HamiltonianOperator(R, {(1, 1): DiffOperator(R, {1: u1, 3: R.one()}),
                                (2, 1): DiffOperator(R, {2: u2, 3: u1}),
                                (2, 2): DiffOperator(R, {1: u1})})
    K.apply({1: u1 * u2 + R.u(1, 1), 2: R.zero()})
    assert len(dxs) == 3
    DiffOperator(R, {2: u1, 3: u2}).compose(
        DiffOperator(R, {0: u1 ** 2, 1: u2}))
    assert len(dxs) == 3 + 2 * 3
    substitute(R.u(1, 3) * R.u(1, 1) * R.u(2, 2) ** 2,
               {1: u1 + u2 ** 2, 2: u1 * u2})
    assert len(dxs) == 3 + 2 * 3 + 3 + 2
    # the list keeps every input alive, so no id is reused
    assert len({id(p) for p in dxs}) == len(dxs)


def _rank1_g3_slice():
    # the genus-3 slice of the quantum rank-1 family over its known part,
    # genus_part 0..2 (the preset's genus <= 1), as the benchmark's
    # ansatz-g3 workload solves it
    spec = rank1(mode="quantum", genus=3)
    known = spec.ring.zero()
    for g in range(3):
        known = known + spec.generator.genus_part(g)
    solve_dr_type(AnsatzProblem(spec.ring, known, 3, d_check=2,
                                diff_degree_bound=3))


STAR_WORKLOADS = {
    "toda": lambda: Hierarchy(toda(mode="quantum")).generate(2).report(1),
    "rank1-g3": _rank1_g3_slice,
}


@pytest.mark.parametrize("workload", sorted(STAR_WORKLOADS))
def test_star_forms_only_in_window_products(monkeypatch, workload):
    # each call's products can all reach the genus window: the genus room
    # left by the least genus of df bounds what acc holds; and each mf's
    # acc is summed over every mg first, so there is one product per
    # (call, order, mf)
    calls = []  # (f, divided, [(a, hbar, top genus of b)])
    inside = []
    real_star, real_mul_sum = star_commutator_local, ring_module.mul_sum

    def recorded_star(f, g, divided=False):
        inside.append([])
        try:
            return real_star(f, g, divided)
        finally:
            calls.append((f, divided, inside.pop()))

    def recorded_mul_sum(pairs, gc, uc):
        if inside:
            inside[-1] += [(dict(a), hbar, max(k & MASK for k in b))
                           for a, b, hbar in pairs if b]
        return real_mul_sum(pairs, gc, uc)

    monkeypatch.setattr(brackets, "star_commutator_local", recorded_star)
    monkeypatch.setattr(recursion, "star_commutator_local", recorded_star)
    monkeypatch.setattr(ring_module, "mul_sum", recorded_mul_sum)
    STAR_WORKLOADS[workload]()
    assert any(ps for _, _, ps in calls)
    for f, divided, ps in calls:
        gc = f.ring.window.genus_cutoff
        per_order = {}
        for a, hbar, b_top in ps:
            assert min(k & MASK for k in a) + b_top <= gc - 2 * hbar
            per_order.setdefault(hbar + divided, []).append(a)
        for n, cuts in per_order.items():
            budget = gc - 2 * (n - divided)
            mf_cuts = [{k: v for k, v in df.terms.items()
                        if k & MASK <= budget}
                       for _, df, _, _ in f._tower[n]]
            # each product's a is the cut df of a distinct mf
            for a in cuts:
                assert cuts.count(a) <= mf_cuts.count(a)


@settings(deadline=None, max_examples=150)
@given(data=st.data(), gc=st.integers(0, 6), uc=st.integers(1, 5),
       eta=st.sampled_from(PAIRINGS))
def test_windowed_poisson_claim_is_sound(data, gc, uc, eta):
    n = 1 if eta is None else 2
    R = RingContext(n_vars=n, eta=eta, window=TruncationWindow(gc, uc))
    full = RingContext(n_vars=n, eta=eta)
    f, g = data.draw(_windowed_operands(R)), data.draw(_windowed_operands(R))
    out = poisson_local(f, g)
    want = poisson_local(DiffPoly(full, f.terms), DiffPoly(full, g.terms))
    assert dict(out.within_window().monomials()) == _up_to(
        dict(want.monomials()), gc, out.exact_u)


def dense_poisson_local(f, g):
    """poisson_local with the standard operator as a sum of DiffPoly
    products: sum over mu, s of partial(f, mu, s) * dx^s(flow_mu)."""
    R = f.ring
    g = integrate(g)
    flow = HamiltonianOperator.standard(R).apply(
        {nu: g.var_deriv(nu) for nu in range(1, R.n_vars + 1)})
    support = f.support_vars()
    out = R.zero()
    for mu, w in flow.items():
        cur = w
        for s in range(max((s for al, s in support if al == mu),
                           default=0) + 1):
            if s:
                cur = dx(cur)
            out = out + partial(f, mu, s) * cur
    return out


@settings(deadline=None, max_examples=100)
@given(data=st.data(), gc=st.one_of(st.none(), st.integers(0, 6)),
       uc=st.one_of(st.none(), st.integers(1, 5)),
       eta=st.sampled_from(PAIRINGS),
       exact=st.tuples(*[st.one_of(st.none(), st.integers(0, 4))] * 2))
def test_poisson_is_the_sum_of_its_products(data, gc, uc, eta, exact):
    # poisson_local forms its products in one term dict and claims the
    # least of their claims, as adding up DiffPoly products does
    n = 1 if eta is None else 2
    R = RingContext(n_vars=n, eta=eta, window=TruncationWindow(gc, uc))
    f, g = (data.draw(_windowed_operands(R)).with_exact_u(e) for e in exact)
    out = poisson_local(f, g)
    want = dense_poisson_local(f, g)
    assert out.terms == want.terms
    assert out.exact_u == want.exact_u


def dx_steps(p):
    """How many steps of dx are kept on p (DiffPoly._dx, see dx_pow)."""
    n = 0
    while (p := getattr(p, "_dx", None)) is not None:
        n += 1
    return n


@settings(deadline=None, max_examples=60)
@given(data=st.data(), gc=st.one_of(st.none(), st.integers(0, 6)),
       uc=st.one_of(st.none(), st.integers(1, 5)),
       eta=st.sampled_from(PAIRINGS), exact=_exact_us())
def test_poisson_on_a_warm_functional_is_the_poisson_on_a_fresh_one(
        data, gc, uc, eta, exact):
    # G's standard flow is memoised on G, and each dx^s of a flow row on
    # the row: densities of rising x-order differentiate the rows further,
    # then densities of falling x-order read the steps already taken, and
    # an explicit operator bypasses the memo
    n = 1 if eta is None else 2
    R = RingContext(n_vars=n, eta=eta, window=TruncationWindow(gc, uc))
    G = integrate(data.draw(_windowed_operands(R)).with_exact_u(exact))
    polys = poly_strategy(R, max_terms=2, max_k=0, max_pow=1)

    def assert_as_fresh(f, operator=None):
        out = poisson_local(f, G, operator)
        fresh = DiffPoly(R, dict(G.density.terms), G.density.exact_u)
        want = poisson_local(f, integrate(fresh), operator)
        assert out.terms == want.terms
        assert out.exact_u == want.exact_u
        return out

    fs = [R.u(data.draw(st.integers(1, n)), k) * (R.one() + data.draw(polys))
          for k in (1, 3, 4, 2, 0)]
    for f in fs:
        assert_as_fresh(f)
    assert all(dx_steps(w) <= 4 for w in G.reduced()._flow.values())
    # an operator with a dx^3 entry, applied to the warm G
    K = HamiltonianOperator(R, {(mu, mu): DiffOperator(R, {1: R.u(mu),
                                                           3: R.one()})
                                for mu in range(1, n + 1)})
    grad = {nu: G.var_deriv(nu) for nu in range(1, n + 1)}
    for f in fs[1:3]:
        out = assert_as_fresh(f, K)
        want = R.zero()
        for mu, s in f.support_vars():
            want = want + partial(f, mu, s) * dx_pow(
                dense_apply(K.entry(mu, mu), grad[mu]), s)
        assert out.terms == want.terms
    assert_as_fresh(fs[2])


# 1-2 variables: eta None is the one-variable identity
CLASS_PAIRINGS = [None, [[1, 0], [0, 1]], [[0, 1], [1, 0]], [[2, 1], [1, 1]]]


def _not_below(c, base):
    """Whether the claim c is at least base, None being unbounded."""
    return c is None or (base is not None and c >= base)


@settings(deadline=None, max_examples=60)
@given(data=st.data(), eta=st.sampled_from(CLASS_PAIRINGS),
       gc=st.sampled_from([None, 4, 6]), uc=st.sampled_from([None, 5, 6]),
       exact=st.tuples(_exact_us(), _exact_us()))
def test_a_bracket_reads_a_functional_through_its_reduced_density(
        data, eta, gc, uc, exact):
    # [f, int g] depends on g only through its class modulo dx and
    # constants, and as a density, not only as a class: g, g + dx(h) + c
    # and int g, which enters as its memoised reduced density, give the
    # same terms.  The peel keeps each term's u-degree and genus, so the
    # claim from the reduced density is never below the claim from g
    n = 1 if eta is None else 2
    R = RingContext(n_vars=n, eta=eta, mode="quantum",
                    window=TruncationWindow(gc, uc))
    operands = _windowed_operands(R)
    f, g = (p.with_exact_u(emin(p.exact_u, e))
            for p, e in zip((data.draw(operands), data.draw(operands)),
                            exact))
    h = data.draw(operands)
    c = R.monomial(data.draw(st.integers(-3, 3)),
                   eps=data.draw(st.integers(0, 2)),
                   hbar=data.draw(st.integers(0, 1)))
    shifted = g + dx(h) + c
    G, G_shifted = integrate(g), integrate(shifted)
    local = [star_commutator_local,
             lambda p, q: star_commutator_local(p, q, True), poisson_local]
    for bracket in local:
        want = bracket(f, g)
        for q in (shifted, G, G_shifted):
            assert bracket(f, q).terms == want.terms
        assert _not_below(bracket(f, G).exact_u, want.exact_u)
        assert _not_below(bracket(f, G_shifted).exact_u,
                          bracket(f, shifted).exact_u)
    # a functional-level bracket is a class, so f may enter reduced too:
    # F's density gaining dx(h) + c, or G given as a bare density, leaves
    # it unchanged, and it is the class of the bracket of the densities
    F, F_shifted = integrate(f), integrate(f + dx(h) + c)
    for bracket, of in ((star_commutator, star_commutator_local),
                        (poisson, poisson_local)):
        want = bracket(F, G)
        assert want == integrate(of(f, G))
        assert bracket(F_shifted, G) == want
        assert bracket(F_shifted, G) == integrate(of(F_shifted.density, G))
        assert bracket(F, g) == want


def test_star_claim_on_a_windowed_operand():
    # the visible g has no term of its top u-degree, so the claim is read
    # from the supports of the uncut derivatives
    R = RingContext(n_vars=1, mode="quantum", window=TruncationWindow(4))
    u1, u2 = R.u(1, 1), R.u(1, 2)
    f = R.monomial(Q(-1, 2), eps=1) * u1 * u2 ** 2
    g = u1 * u2 ** 3 + R.monomial(Q(5, 2), eps=2, hbar=1) * u1 ** 2
    out = star_commutator_local(f, g.truncate_u(3))
    assert out.exact_u == 4
    assert out.within_window() == star_commutator_local(f, g).truncate_u(4)


@pytest.mark.parametrize("mode", ["quantum", "classical"])
def test_bracket_claim_on_a_windowed_zero(mode):
    # f is a windowed zero, exact through u-degree 2: the true operand may
    # be u1 u1_1^2, whose bracket with g is nonzero at u-degree 4
    bracket = star_commutator_local if mode == "quantum" else poisson_local
    eta = [[0, 1], [1, 0]]
    R = RingContext(n_vars=2, eta=eta, mode=mode,
                    window=TruncationWindow(2, 4))
    full = RingContext(n_vars=2, eta=eta, mode=mode)
    g = R.u(2) * R.u(2, 1) ** 2
    out = bracket(R.zero().with_exact_u(2), g)
    want = bracket(DiffPoly(full, (R.u(1) * R.u(1, 1) ** 2).terms),
                   DiffPoly(full, g.terms))
    assert dict(out.within_window().monomials()) == _up_to(
        dict(want.monomials()), 2, out.exact_u)


def test_divided_star_claim_on_a_windowed_operand():
    # the visible g has no (u_2, u_2) derivative, so order 2 forms no pair,
    # but the true g has one
    R = RingContext(n_vars=1, mode="quantum", window=TruncationWindow(4))
    u1, u2 = R.u(1, 1), R.u(1, 2)
    f = R.monomial(Q(-1, 2), eps=1) * u1 * u2 ** 2
    g = u1 * u2 ** 3 + R.monomial(Q(5, 2), eps=2, hbar=1) * u1 ** 2
    out = star_commutator_local(f, g.truncate_u(3), divided=True)
    want = star_commutator_local(f, g, divided=True)
    assert dict(out.within_window().monomials()) == _up_to(
        dict(want.monomials()), 4, out.exact_u)


def _shown(R, F, e):
    """What a windowed computation of F shows on the ring R: its terms
    inside R's window through u-degree e, exact through e or through R's
    u-degree cutoff, whichever is lower."""
    uc = R.window.u_degree_cutoff
    top = e if uc is None else min(e, uc)
    return DiffPoly(R, {k: v for k, v in F.terms.items()
                        if k & MASK <= R.window.genus_cutoff
                        and k >> UDEG_AT & MASK <= top}, top)


HIDDEN = ["poisson", "star", "divided-star", "operator", "matrix"]


@pytest.mark.parametrize("op", HIDDEN)
@settings(deadline=None, max_examples=100)
@given(data=st.data(), uc=st.one_of(st.none(), st.integers(1, 5)))
def test_a_claim_covers_what_the_window_hides(op, data, uc):
    # every operand is a true polynomial F seen through the window, which
    # hides its terms above a drawn exact_u, so it may show none of them:
    # the result, within its claim, is the true result cut at gc (an
    # undivided star reaches no genus below 2)
    gc = data.draw(st.integers(2 if op == "star" else 0, 4))
    eta = [[0, 1], [1, 0]]
    mode = "quantum" if op.endswith("star") else "classical"
    R = RingContext(n_vars=2, eta=eta, mode=mode,
                    window=TruncationWindow(gc, uc))
    full = RingContext(n_vars=2, eta=eta, mode=mode,
                       window=TruncationWindow(gc))
    polys = poly_strategy(full, max_terms=3, max_k=2, max_pow=1)

    def operand():
        F = data.draw(polys)
        return F, _shown(R, F, data.draw(st.integers(0, 3)))

    def operator():
        js = data.draw(st.lists(st.integers(0, 2), unique=True, max_size=2))
        coeffs = {j: operand() for j in js}
        return (DiffOperator(full, {j: C for j, (C, _) in coeffs.items()}),
                DiffOperator(R, {j: c for j, (_, c) in coeffs.items()}))

    (F, f), (G, g) = operand(), operand()
    if op == "poisson":
        pairs = [(poisson_local(f, g), poisson_local(F, G))]
    elif op.endswith("star"):
        divided = op == "divided-star"
        pairs = [(star_commutator_local(f, g, divided),
                  star_commutator_local(F, G, divided))]
    elif op == "operator":
        L, ell = operator()
        pairs = [(ell.apply(f), L.apply(F))]
    else:
        ops = {(mu, nu): operator() for mu in (1, 2) for nu in (1, 2)}
        got = HamiltonianOperator(R, {k: o for k, (_, o) in ops.items()}
                                  ).apply({1: f, 2: g})
        want = HamiltonianOperator(full, {k: O for k, (O, _) in ops.items()}
                                   ).apply({1: F, 2: G})
        pairs = [(got.get(mu, R.zero()), want.get(mu, full.zero()))
                 for mu in (1, 2)]
    for out, truth in pairs:
        assert dict(out.within_window().monomials()) == _up_to(
            dict(truth.monomials()), gc, out.exact_u)


def test_a_windowed_zero_coefficient_keeps_its_claim():
    # DiffOperator keeps a zero coefficient that is windowed: applied, it
    # claims what the product with it claims
    R = RingContext(n_vars=1)
    u = R.u()
    zero = R.zero().with_exact_u(2)
    assert (zero * dx(u * u)).exact_u == 4
    assert DiffOperator(R, {1: zero}).apply(u * u).exact_u == 4


def test_a_windowed_zero_column_keeps_its_claim():
    # HamiltonianOperator.apply forms the products of a windowed zero
    # vec[nu]: row 1 of the standard operator is dx of it, exact through 2
    R = RingContext(n_vars=2, eta=[[0, 1], [1, 0]])
    rows = HamiltonianOperator.standard(R).apply(
        {1: R.u(1), 2: R.zero().with_exact_u(2)})
    assert rows[1].is_zero() and rows[1].exact_u == 2


@pytest.mark.parametrize("standard", [True, False])
def test_a_flow_row_the_window_empties_keeps_its_claim(standard):
    # standard: u^3 is clipped to a zero exact through 2, so its flow row
    # is a windowed zero, while the true flow 6 u u_1 is visible in the
    # window.  Explicit: the row u^2 dx(u) = u^2 u_1 is clipped by the
    # window.  Either row forms its products with D_f and keeps its claim.
    R = RingContext(n_vars=1, window=TruncationWindow(None, 2))
    full = RingContext(n_vars=1)
    u = R.u()
    if standard:
        G, G_full, K, K_full = u ** 3, full.u() ** 3, None, None
    else:
        G, G_full = u * u / 2, full.u() * full.u() / 2
        K, K_full = (HamiltonianOperator(ring, {(1, 1): DiffOperator(
            ring, {1: ring.u() ** 2})}) for ring in (R, full))
    out = poisson_local(u, integrate(G), K)
    truth = poisson_local(full.u(), integrate(G_full), K_full)
    assert out.is_zero() and out.exact_u is not None
    assert not truth.is_zero()
    assert dict(out.within_window().monomials()) == _up_to(
        dict(truth.monomials()), 0, out.exact_u)


# ---------------------------------------------------------------------------
# the contraction kernel against a sum over slot bijections


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _multiplicity_factorials(ms):
    return prod(factorial(ms.count(x)) for x in set(ms))


def _counted(ms):
    return tuple((al, k, ms.count((al, k))) for al, k in sorted(set(ms)))


def _bijection_sum(R, mf, mg):
    """The signed kernel of (mf, mg) summed over all n! ways to pair the
    slots of mf with the slots of mg, each weighted 1 / (prod m! prod c!)
    for the multiplicities m of mf and c of mg, as {j: (re, im)}."""
    n = len(mf)
    sym = _multiplicity_factorials(mf) * _multiplicity_factorials(mg)
    out = {}
    for perm in permutations(range(n)):
        pairs = [(mf[i], mg[perm[i]]) for i in range(n)]
        w = (Q(1, sym), Q(0))
        for _ in range(n - 1):
            w = _cmul(w, (Q(0), Q(-1)))  # (-i)^(n-1)
        for (al, s), (be, r) in pairs:
            w = _cmul(w, to_pair(R.eta_inv_pair(al, be)))
            if r % 2:
                w = (-w[0], -w[1])
        a = tuple(sorted(s + r + 1 for (_, s), (_, r) in pairs))
        for j, c in rational_row(contraction_row(a)).items():
            re, im = out.get(j, (Q(0), Q(0)))
            out[j] = (re + w[0] * c, im + w[1] * c)
    return {j: v for j, v in out.items() if any(v)}


@settings(deadline=None, max_examples=150)
@given(data=st.data(), eta=st.sampled_from(PAIRINGS), n=st.integers(1, 4))
def test_kernel_is_the_sum_over_slot_bijections(data, eta, n):
    # a spectator variable v = u^(nv+1), paired only with itself
    nv = 1 if eta is None else 2
    rows = [[int(i == j) for j in range(nv)] for i in range(nv)] \
        if eta is None else eta
    R = RingContext(n_vars=nv + 1, eta=[r + [0] for r in rows]
                    + [[0] * nv + [1]], mode="quantum")
    letters = st.lists(st.tuples(st.integers(1, nv), st.integers(0, 2)),
                       min_size=n, max_size=n).map(lambda x: tuple(sorted(x)))
    mf, mg = data.draw(letters), data.draw(letters)
    want = _bijection_sum(R, mf, mg)
    # the kernel itself, which carries the sign (-1)^(sum r) and the phase
    # (-i)^(n-1) that every ordering of mg shares
    got = {j: to_pair(c) for j, c in _kernel(R, mf, mg)}
    assert got == want
    # and as the star commutator applies it: f is the monomial of mf and g
    # that of mg times v, so the hbar^n part of [f, g] is the kernel of
    # (mf, mg) alone, acting on v times prod m! prod c! (an mg with v in
    # it has no contraction)
    f = R.monomial(1, factors=_counted(mf))
    g = R.monomial(1, factors=_counted(mg + ((nv + 1, 0),)))
    sym = _multiplicity_factorials(mf) * _multiplicity_factorials(mg)
    got = {}
    for key, c in star_commutator_local(f, g).monomials():
        if key[1] == n:
            (al, j, pw), = key[3]
            assert (al, pw) == (nv + 1, 1)
            re, im = to_pair(c)
            got[j] = (re / sym, im / sym)
    assert got == want
