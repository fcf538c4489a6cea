import ast
import random
from pathlib import Path

from loophier import fourier
from loophier.rat import Q
from loophier.ring import RingContext, dx
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
