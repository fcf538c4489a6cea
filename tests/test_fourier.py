import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from loophier import fourier
from loophier.errors import ContextMismatch, ModeMismatch
from loophier.rat import Q
from loophier.ring import RingContext, TruncationWindow, dx
from loophier.functionals import integrate
from loophier.brackets import poisson_local, star_commutator_local
from loophier.coeffs import to_pair
from loophier.fourier import (to_fourier, poisson_fourier, star_product,
                              star_commutator_fourier)
from helpers import rand_poly


def small(rng, R, udeg=3, max_k=2, n_terms=3):
    return rand_poly(rng, R, n_terms=n_terms, max_pow=2, max_k=max_k,
                     allow_i=(R.mode == "quantum"), max_udeg=udeg)


def band_K(f, g):
    return max(2, max(f.xorder_max(), g.xorder_max())
               + max(f.udeg_max(), g.udeg_max()))


def test_mode_expansion_respects_dx():
    rng = random.Random(61)
    R = RingContext(n_vars=2, eta=[[0, 1], [1, 0]])
    for _ in range(10):
        f = small(rng, R)
        F = to_fourier(f, 4)
        G = to_fourier(dx(f), 4)
        # dx acts as multiplication by i * frequency, checked termwise
        for key, v in F.terms.items():
            freq = sum(x[1] * x[2] for x in key[3])
            got = G.terms.get(key)
            if freq == 0:
                assert got is None
            else:
                re, im = to_pair(v)
                assert to_pair(got) == (-im * freq, re * freq)
        assert len(G.terms) <= len(F.terms)


def test_mode_expansion_is_multiplicative():
    rng = random.Random(62)
    R = RingContext(n_vars=1)
    for _ in range(8):
        f = small(rng, R, udeg=2)
        g = small(rng, R, udeg=1)
        assert to_fourier(f * g, 3) == to_fourier(f, 3) * to_fourier(g, 3)


def test_integral_is_frequency_zero():
    R = RingContext(n_vars=1)
    u = R.u()
    # int u u_1 = 0, and modes confirm it
    assert to_fourier(dx(u * u / 2), 3).project_zero().is_zero()
    F = to_fourier(u * u, 3).project_zero()
    # sum_k p_k p_{-k} survives
    assert not F.is_zero()
    assert all(sum(x[1] * x[2] for x in key[3]) == 0 for key in F.terms)


def test_classical_bracket_against_modes():
    rng = random.Random(63)
    R = RingContext(n_vars=2, eta=[[2, 1], [1, 1]])
    nonzero = 0
    for _ in range(15):
        f = small(rng, R)
        g = small(rng, R)
        K = band_K(f, g)
        lhs = to_fourier(poisson_local(f, integrate(g)), K).low_band()
        rhs = poisson_fourier(to_fourier(f, K),
                              to_fourier(g, K).project_zero()).low_band()
        assert lhs == rhs
        if not lhs.is_zero():
            nonzero += 1
    assert nonzero >= 5


def test_quantum_bracket_against_modes():
    rng = random.Random(64)
    R = RingContext(n_vars=1, mode="quantum")
    nonzero = 0
    for _ in range(14):
        f = small(rng, R)
        g = small(rng, R)
        K = band_K(f, g)
        lhs = to_fourier(star_commutator_local(f, integrate(g)), K).low_band()
        rhs = star_commutator_fourier(
            to_fourier(f, K), to_fourier(g, K).project_zero()).low_band()
        assert lhs == rhs
        if not lhs.is_zero():
            nonzero += 1
    assert nonzero >= 4


def star_against_modes(R, seed, n):
    """Compare the local star commutator with the mode oracle on n random
    pairs; returns how many commutators were nonzero."""
    rng = random.Random(seed)
    nonzero = 0
    for _ in range(n):
        f = small(rng, R)
        g = small(rng, R)
        K = band_K(f, g)
        lhs = to_fourier(star_commutator_local(f, integrate(g)), K).low_band()
        rhs = star_commutator_fourier(
            to_fourier(f, K), to_fourier(g, K).project_zero()).low_band()
        assert lhs == rhs
        if not lhs.is_zero():
            nonzero += 1
    return nonzero


def test_quantum_bracket_against_modes_two_vars():
    R = RingContext(n_vars=2, eta=[[0, 1], [1, 0]], mode="quantum")
    star_against_modes(R, 65, 6)


def test_quantum_bracket_against_modes_complex_pairing():
    # the inverse pairing is [[0, -i], [-i, 1]]: powers of -i differ, so a
    # contraction that takes the wrong power of eta^{ab} fails here
    R = RingContext(n_vars=2, eta=[[1, (0, 1)], [(0, 1), 0]], mode="quantum")
    assert star_against_modes(R, 74, 6) >= 3


def test_oracle_catches_wrong_coefficients():
    # a deliberately corrupted flow must fail the mode comparison
    R = RingContext(n_vars=1)
    u = R.u()
    f = u * u / 2
    g = u ** 3 / 6
    K = band_K(f, g)
    right = poisson_local(f, integrate(g))
    wrong = right * Q(7, 6)
    F = to_fourier(f, K)
    H = to_fourier(g, K).project_zero()
    assert to_fourier(right, K).low_band() == poisson_fourier(F, H).low_band()
    assert to_fourier(wrong, K).low_band() != poisson_fourier(F, H).low_band()


def test_star_product_associative_on_small_inputs():
    rng = random.Random(66)
    R = RingContext(n_vars=1, mode="quantum")
    for _ in range(4):
        A = to_fourier(small(rng, R, udeg=2, max_k=1), 2)
        B = to_fourier(small(rng, R, udeg=2, max_k=1), 2)
        C = to_fourier(small(rng, R, udeg=2, max_k=1), 2)
        assert star_product(star_product(A, B), C) == \
            star_product(A, star_product(B, C))


# the pairings of the oracle laws: the identity on one and two variables,
# and three on two variables, one of them complex
PAIRINGS = [(1, None), (2, None), (2, [[0, 1], [1, 0]]), (2, [[2, 1], [1, 1]]),
            (2, [[1, (0, 1)], [(0, 1), 0]])]
RINGS = {mode: [RingContext(n_vars=n, eta=eta, params=("s", "t"), mode=mode)
                for n, eta in PAIRINGS]
         for mode in ("classical", "quantum")}


@st.composite
def operand(draw, R, udeg, hbar=True):
    """A polynomial of R of at most two terms, each of u-degree at most
    udeg with letters of x-order at most 1, and often a parameter."""
    rational = st.builds(Q, st.integers(-3, 3), st.integers(1, 3))
    letter = st.tuples(st.integers(1, R.n_vars), st.integers(0, 1))
    param = st.sampled_from([(), (("s", 1),), (("t", 1),),
                             (("s", 1), ("t", 2))])
    quantum = R.mode == "quantum"
    out = R.zero()
    for _ in range(draw(st.integers(1, 2))):
        powers = {}
        for al_k in draw(st.lists(letter, max_size=udeg)):
            powers[al_k] = powers.get(al_k, 0) + 1
        out = out + R.monomial(
            (draw(rational), draw(rational) if quantum else 0),
            eps=draw(st.integers(0, 1)),
            hbar=draw(st.integers(0, 1)) if hbar and quantum else 0,
            factors=tuple((al, k, pw)
                          for (al, k), pw in sorted(powers.items())),
            params=draw(param))
    return out


@settings(max_examples=40, deadline=None)
@given(data=st.data(), mode=st.sampled_from(["classical", "quantum"]))
def test_bracket_agrees_with_the_oracle(data, mode):
    # the brackets against the oracle inside the band where the mode
    # truncation is exact, with parameters on both operands
    R = data.draw(st.sampled_from(RINGS[mode]))
    f = data.draw(operand(R, 2))
    g = data.draw(operand(R, 3))
    K = band_K(f, g)
    F, H = to_fourier(f, K), to_fourier(g, K).project_zero()
    if mode == "classical":
        lhs, rhs = poisson_local(f, integrate(g)), poisson_fourier(F, H)
    else:
        lhs = star_commutator_local(f, integrate(g))
        rhs = star_commutator_fourier(F, H)
    assert to_fourier(lhs, K).low_band() == rhs.low_band()


def u_cut(P, e):
    """P's terms of u-degree at most e (every term when e is None), the
    u-degree of a mode term being its number of mode factors."""
    return {key: v for key, v in P.terms.items()
            if e is None or sum(f[2] for f in key[3]) <= e}


@settings(max_examples=40, deadline=None)
@given(data=st.data(), mode=st.sampled_from(["classical", "quantum"]),
       uc=st.one_of(st.none(), st.integers(1, 4)))
def test_windowed_bracket_agrees_with_the_windowed_oracle(data, mode, uc):
    # on a windowed ring the oracle clips each product at the window, as
    # the local brackets do, so the two agree on what the bracket claims;
    # a quantum genus cutoff below 2 leaves no contraction, and a u-free
    # f or a g of u-degree below 2 no bracket
    gc = data.draw(st.integers(0 if mode == "classical" else 2, 6))
    n, eta = data.draw(st.sampled_from(PAIRINGS))
    R = RingContext(n_vars=n, eta=eta, params=("s", "t"), mode=mode,
                    window=TruncationWindow(gc, uc))
    f = data.draw(operand(R, 2).filter(lambda p: p.udeg_max() > 0))
    g = data.draw(operand(R, 3).filter(lambda p: p.udeg_max() > 1))
    K = band_K(f, g)
    F, H = to_fourier(f, K), to_fourier(g, K).project_zero()
    if mode == "classical":
        lhs, rhs = poisson_local(f, integrate(g)), poisson_fourier(F, H)
    else:
        lhs = star_commutator_local(f, integrate(g))
        rhs = star_commutator_fourier(F, H)
    # the oracle holds nothing outside the window
    assert all(key[0] + 2 * key[1] <= gc for key in rhs.terms)
    assert u_cut(rhs, uc) == rhs.terms
    got = to_fourier(lhs.within_window(), K).low_band()
    assert got.terms == u_cut(rhs.low_band(), lhs.exact_u)


def test_windowed_star_product_keeps_the_window():
    # eps^2 u * u has hbar terms of genus 4, past the genus cutoff 2, and
    # u^2 * u^2 its hbar^0 term u^4, past the u-degree cutoff 3
    R = RingContext(mode="quantum", window=TruncationWindow(2, 3))
    u = R.u()
    P = star_product(to_fourier(R.monomial(1, eps=2) * u, 1), to_fourier(u, 1))
    assert P.terms
    assert {key[0] + 2 * key[1] for key in P.terms} == {2}
    P = star_product(to_fourier(u ** 2, 1), to_fourier(u ** 2, 1))
    assert P.terms
    assert {sum(f[2] for f in key[3]) for key in P.terms} == {2}


def hbar_part(P, n):
    return {key: v for key, v in P.terms.items() if key[1] == n}


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_star_product_opens_with_the_product_and_the_bracket(data):
    # for hbar-free F and G, the hbar^0 part of F * G is the plain product
    # and the hbar^1 part of [F, G] is hbar {F, G}
    R = data.draw(st.sampled_from(RINGS["quantum"]))
    F = to_fourier(data.draw(operand(R, 2, hbar=False)), 2)
    G = to_fourier(data.draw(operand(R, 2, hbar=False)), 2)
    assert hbar_part(star_product(F, G), 0) == (F * G).terms
    raised = {(e, h + 1, p, fac): v
              for (e, h, p, fac), v in poisson_fourier(F, G).terms.items()}
    assert hbar_part(star_commutator_fourier(F, G), 1) == raised


def test_oracle_refuses_mismatched_operands():
    R = RINGS["quantum"][0]
    F = to_fourier(R.u(), 2)
    with pytest.raises(ContextMismatch):
        poisson_fourier(F, to_fourier(R.u(), 3))
    with pytest.raises(ContextMismatch):
        star_product(F, to_fourier(R.u(), 3))
    C = RINGS["classical"][0]
    with pytest.raises(ModeMismatch):
        star_product(to_fourier(C.u(), 2), to_fourier(C.u(), 2))


def test_oracle_shares_no_bracket_code():
    # a defect shared with the bracket code would pass both sides of the
    # comparisons above, so the oracle imports nothing from it
    tree = ast.parse(Path(fourier.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            parts += [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            parts = [p for alias in node.names for p in alias.name.split(".")]
        else:
            continue
        assert not {"brackets", "functionals"} & set(parts), ast.unparse(node)
