"""Ansatz-space enumeration and the DR-type constraint solver."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from loophier.rat import Q, bernoulli
from loophier.errors import ContextMismatch, Inconsistent
from loophier.ring import RingContext, TruncationWindow, parse
from loophier.functionals import LocalFunctional, reduce_density
from loophier.recursion import Hierarchy, HierarchySpec
from loophier.ansatz import (AnsatzProblem, monomial_basis, solve_dr_type,
                             _LinearSystem)
from loophier.coeffs import CONE, cscale, is_czero
from loophier.presets import ilw, kdv, rank1, spin3, spin4

from helpers import poly_strategy


def qring(gc):
    return RingContext(mode="quantum",
                       window=TruncationWindow(genus_cutoff=gc))


def cring(gc):
    return RingContext(mode="classical",
                       window=TruncationWindow(genus_cutoff=gc))


def cubic(ring):
    return ring.monomial(Q(1, 6), factors=((1, 0, 3),))


def genus_one_row(ring, s1):
    """Scalar genus-one correction of the known one-parameter family."""
    return (ring.monomial(Q(-1, 24), eps=2, factors=((1, 1, 2),))
            + ring.monomial((Q(0), -Q(s1) / 2), hbar=1, factors=((1, 1, 2),))
            + ring.monomial((Q(0), Q(-1, 24)), hbar=1, factors=((1, 0, 1),)))


def genus_two_row(ring, s1, s2):
    """Scalar genus-two correction: the three u_2^2 sector coefficients."""
    s1, s2 = Q(s1), Q(s2)
    return (ring.monomial(-s1 / 120, eps=4, factors=((1, 2, 2),))
            + ring.monomial((Q(0), -s1 * s1 / 10), eps=2, hbar=1,
                            factors=((1, 2, 2),))
            + ring.monomial((24 * s1 ** 3 + 5 * s2) / 60, hbar=2,
                            factors=((1, 2, 2),)))


def coeff_of(f, eps, hbar, factors):
    return f.coefficient_of(eps=eps, hbar=hbar, factors=factors)


# -- monomial_basis ----------------------------------------------------------

def test_basis_genus_one_classical_collapses_ibp():
    basis = monomial_basis(cring(2), 1, 2)
    assert [dict(b.monomials()) for b in basis] == \
        [{(2, 0, (), ((1, 1, 2),)): CONE}]


def test_basis_genus_one_quantum_has_hbar_sector():
    keys = [next(b.monomials())[0] for b in monomial_basis(qring(2), 1, 2)]
    assert (2, 0, (), ((1, 1, 2),)) in keys
    assert (0, 1, (), ((1, 1, 2),)) in keys
    assert (0, 1, (), ((1, 0, 1),)) in keys
    assert all(e + 2 * h == 2 for e, h, _, _ in keys)


def test_basis_genus_zero_cubic_sector():
    keys = [next(b.monomials())[0] for b in monomial_basis(cring(0), 0, 3)]
    assert keys == [(0, 0, (), ((1, 0, 1),)),
                    (0, 0, (), ((1, 0, 2),)),
                    (0, 0, (), ((1, 0, 3),))]


def test_basis_empty_when_bound_excludes_everything():
    assert monomial_basis(cring(2), 1, 1) == []


def test_basis_two_component_counts():
    ring = RingContext(n_vars=2, mode="classical",
                       window=TruncationWindow(genus_cutoff=2))
    basis = monomial_basis(ring, 1, 2)
    assert len(basis) == 3
    for b in basis:
        ((_, _, _, fac), _), = b.monomials()
        assert sum(k * p for _, k, p in fac) == 2


def test_basis_rejects_bad_arguments():
    with pytest.raises(ValueError):
        monomial_basis(cring(0), -1, 2)
    with pytest.raises(ValueError):
        monomial_basis(cring(0), 0, 0)


# -- genus zero --------------------------------------------------------------

def test_genus_zero_classical_is_cubic():
    sol = solve_dr_type(AnsatzProblem(cring(0), None, 0))
    assert sol.dimension() == 0
    assert sol.genus_part().terms == cubic(cring(0)).terms


def test_genus_zero_quantum_linear_gauge():
    ring = qring(0)
    sol = solve_dr_type(AnsatzProblem(ring, None, 0))
    assert sol.dimension() == 1
    assert sol.genus_part().terms == cubic(ring).terms
    assert sol._direction(0).terms == ring.u().terms


# -- genus one ---------------------------------------------------------------

def test_genus_one_quantum_family():
    ring = qring(2)
    sol = solve_dr_type(AnsatzProblem(ring, cubic(ring), 1, d_check=2))
    assert sol.dimension() == 2
    tail = ((1, 0, 1),)
    assert coeff_of(sol.genus_part(), 0, 1, tail) == (Q(0), Q(-1, 24))
    for j in range(2):
        assert is_czero(coeff_of(sol._direction(j), 0, 1, tail))
    fixed = sol.pin(ring.monomial(CONE, eps=2, factors=((1, 1, 2),)),
                    Q(-1, 24))
    assert fixed.dimension() == 1
    point = fixed.genus_part()
    assert coeff_of(point, 2, 0, ((1, 1, 2),)) == (Q(-1, 24), Q(0))
    assert coeff_of(point, 0, 1, tail) == (Q(0), Q(-1, 24))
    assert fixed._direction(0).terms == \
        ring.monomial(CONE, hbar=1, factors=((1, 1, 2),)).terms


def test_genus_one_quantum_contains_family_members():
    ring = qring(2)
    sol = solve_dr_type(AnsatzProblem(ring, cubic(ring), 1, d_check=2))
    fixed = sol.pin(ring.monomial(CONE, eps=2, factors=((1, 1, 2),)),
                    Q(-1, 24))
    for s1 in (Q(0), Q(1), Q(-2, 5)):
        target = genus_one_row(ring, s1)
        vals = fixed.contains(target)
        assert vals is not None
        assert (fixed.genus_part(vals) - target).is_zero()
    off_family = genus_one_row(ring, 1) + ring.monomial(
        (Q(0), Q(1)), hbar=1, factors=((1, 0, 1),))
    assert fixed.contains(off_family) is None


def test_genus_one_classical_family():
    ring = cring(2)
    sol = solve_dr_type(AnsatzProblem(ring, cubic(ring), 1, d_check=2))
    assert sol.dimension() == 1
    assert sol.genus_part().is_zero()
    assert sol._direction(0).terms == \
        ring.monomial(CONE, eps=2, factors=((1, 1, 2),)).terms
    fixed = sol.pin(ring.monomial(CONE, eps=2, factors=((1, 1, 2),)),
                    Q(-1, 24))
    assert fixed.dimension() == 0
    assert fixed.genus_part().terms == \
        ring.monomial(Q(-1, 24), eps=2, factors=((1, 1, 2),)).terms


# -- genus two ---------------------------------------------------------------

def test_genus_two_quantum_family():
    ring = qring(4)
    s1 = Q(1, 3)
    known = cubic(ring) + genus_one_row(ring, s1)
    sol = solve_dr_type(AnsatzProblem(ring, known, 2))
    assert sol.dimension() == 3
    fixed = sol.pin(ring.monomial(CONE, eps=4, factors=((1, 2, 2),)),
                    -s1 / 120)
    assert fixed.dimension() == 2
    for s2 in (Q(0), Q(2, 7)):
        target = genus_two_row(ring, s1, s2)
        vals = fixed.contains(target)
        assert vals is not None
        assert (fixed.genus_part(vals) - target).is_zero()


def test_genus_two_dimension_stable_in_depth():
    ring = qring(4)
    known = cubic(ring) + genus_one_row(ring, Q(1, 3))
    for d in (2, 3):
        sol = solve_dr_type(AnsatzProblem(ring, known, 2, d_check=d))
        assert sol.dimension() == 3


def test_genus_two_classical_family():
    ring = cring(4)
    known = cubic(ring) + ring.monomial(Q(-1, 24), eps=2,
                                        factors=((1, 1, 2),))
    sol = solve_dr_type(AnsatzProblem(ring, known, 2))
    assert sol.dimension() == 1
    assert sol.genus_part().is_zero()
    assert sol._direction(0).terms == \
        ring.monomial(CONE, eps=4, factors=((1, 2, 2),)).terms


# -- soundness and completeness ---------------------------------------------

def test_sampled_point_generates_commuting_hierarchy():
    ring = qring(2)
    sol = solve_dr_type(AnsatzProblem(ring, cubic(ring), 1, d_check=2))
    dens = sol.density([Q(1, 5), (Q(0), Q(-2, 3))])
    h = Hierarchy(HierarchySpec("sample", ring, dens)).generate(3)
    pairs = [((1, i), (1, j)) for i in range(4) for j in range(i + 1, 4)]
    assert all(h.commute_residual(ap, bq).is_zero() for ap, bq in pairs)
    assert h.functional(1, 1) == LocalFunctional(dens)


def test_contains_known_cubic_hierarchy_row():
    ring = qring(2)
    sol = solve_dr_type(AnsatzProblem(ring, cubic(ring), 1, d_check=2))
    row = (ring.monomial(Q(1, 24), eps=2, factors=((1, 0, 1), (1, 2, 1)))
           + ring.monomial((Q(0), Q(-1, 24)), hbar=1, factors=((1, 0, 1),)))
    vals = sol.contains(row)
    assert vals is not None
    assert reduce_density(sol.genus_part(vals) - row).is_zero()


def test_contains_mu_one_deformation_rows():
    ring = qring(4)
    b2 = abs(bernoulli(2)) / (2 * math.factorial(2))
    b4 = abs(bernoulli(4)) / (2 * math.factorial(4))
    uu2 = ((1, 0, 1), (1, 2, 1))
    uu4 = ((1, 0, 1), (1, 4, 1))
    g1 = (ring.monomial(b2, eps=2, factors=uu2)
          + ring.monomial((Q(0), -b2), hbar=1, factors=uu2)
          + ring.monomial((Q(0), Q(-1, 24)), hbar=1, factors=((1, 0, 1),)))
    sol1 = solve_dr_type(AnsatzProblem(ring, cubic(ring), 1, d_check=2))
    vals = sol1.contains(g1)
    assert vals is not None
    assert reduce_density(sol1.genus_part(vals) - g1).is_zero()

    s1 = Q(-1, 12)
    known = cubic(ring) + genus_one_row(ring, s1)
    sol2 = solve_dr_type(AnsatzProblem(ring, known, 2))
    g2 = (ring.monomial(b4, eps=4, factors=uu4)
          + ring.monomial((Q(0), -b4), eps=2, hbar=1, factors=uu4))
    vals = sol2.contains(g2)
    assert vals is not None
    assert reduce_density(sol2.genus_part(vals) - g2).is_zero()
    matched = genus_two_row(ring, s1, Q(1, 360))
    assert reduce_density(matched - g2).is_zero()


RANK1_S = {"s1": Q(1, 3), "s2": Q(-2, 5), "s3": Q(3, 7)}
ILW_MU = {"mu": Q(2, 7)}

# (preset, mode, genus, diff_degree_bound, unknowns, dimension, parameter
# values); a row's id leaves out the bound and the values
SLICES = [
    (kdv, "classical", 1, 3, 2, 1, {}), (kdv, "classical", 2, 3, 2, 1, {}),
    (kdv, "quantum", 1, 3, 10, 2, {}), (kdv, "quantum", 2, 3, 24, 3, {}),
    (spin3, "classical", 1, 3, 9, 1, {}), (spin3, "classical", 2, 3, 11, 1, {}),
    (spin3, "quantum", 1, 3, 42, 2, {}), (spin3, "quantum", 2, 3, 117, 3, {}),
    (spin3, "quantum", 3, 3, 252, 0, {}),
    (spin4, "classical", 1, 4, 60, 1, {}), (spin4, "classical", 2, 3, 32, 0, {}),
    (spin4, "quantum", 1, 4, 240, 2, {}),
    (rank1, "quantum", 1, 3, 10, 2, RANK1_S),
    (rank1, "quantum", 2, 3, 24, 3, RANK1_S),
    (rank1, "quantum", 3, 3, 48, 8, RANK1_S),
    (rank1, "quantum", 3, 4, 84, 8, RANK1_S),
    (ilw, "quantum", 1, 3, 10, 2, ILW_MU), (ilw, "quantum", 2, 3, 24, 3, ILW_MU)]


def _at(poly, ring, values):
    """poly on ring, each parameter set to its rational value in values."""
    out = ring.zero()
    for (e, h, params, fac), v in poly.monomials():
        x = Q(math.prod(values[name] ** k for name, k in params))
        out = out + ring.monomial(cscale(v, x.numerator, x.denominator),
                                  eps=e, hbar=h, factors=fac)
    return out


@pytest.mark.parametrize("preset, mode, genus, bound, unknowns, dim, values",
                         SLICES, ids=[f"{p.__name__}-{m}-{g}-{n}-{d}"
                                      for p, m, g, _, n, d, _ in SLICES])
def test_preset_slice_lies_in_its_family(preset, mode, genus, bound,
                                         unknowns, dim, values):
    # the genus-g slice of a transcribed generator (its terms of eps + 2
    # hbar degree 2g), its parameters set to rationals, solves the DR-type
    # constraints over its lower part, on a ring with the preset's pairing
    # cut at that genus; spin3 and spin4 have antidiagonal pairings of two
    # and three fields (kdv's genus-2 slice is 0)
    spec = preset(mode=mode)
    ring = RingContext(n_vars=spec.ring.n_vars, eta=spec.ring.eta, mode=mode,
                       window=TruncationWindow(genus_cutoff=2 * genus))
    gen = _at(spec.generator, ring, values)
    target = gen.genus_part(2 * genus)
    sol = solve_dr_type(AnsatzProblem(ring, gen - target, genus, d_check=2,
                                      diff_degree_bound=bound))
    assert sol.contains(target) is not None
    assert (len(sol.basis), sol.dimension()) == (unknowns, dim)


# -- failure modes and plumbing ---------------------------------------------

def test_inconsistent_known_part():
    ring = qring(2)
    quartic = ring.monomial(Q(1, 24), factors=((1, 0, 4),))
    with pytest.raises(Inconsistent):
        solve_dr_type(AnsatzProblem(ring, quartic, 1, d_check=2))


def test_inconsistent_genus_one_slice():
    ring = qring(4)
    bad = cubic(ring) + genus_one_row(ring, 0) + ring.monomial(
        (Q(0), Q(1, 7)), hbar=1, factors=((1, 0, 1),))
    with pytest.raises(Inconsistent):
        solve_dr_type(AnsatzProblem(ring, bad, 2))


def test_pin_unreachable_value():
    ring = qring(2)
    sol = solve_dr_type(AnsatzProblem(ring, cubic(ring), 1, d_check=2))
    with pytest.raises(Inconsistent):
        sol.pin(ring.monomial(CONE, hbar=1, factors=((1, 0, 1),)),
                (Q(0), Q(-1, 7)))


def test_pin_rejects_non_basis_monomial():
    ring = qring(2)
    sol = solve_dr_type(AnsatzProblem(ring, cubic(ring), 1, d_check=2))
    with pytest.raises(ValueError):
        sol.pin(ring.monomial(CONE, eps=2, factors=((1, 3, 2),)), Q(1))
    with pytest.raises(ValueError):
        sol.pin(ring.monomial(Q(2), eps=2, factors=((1, 1, 2),)), Q(1))


def test_pins_chain():
    ring = qring(4)
    known = cubic(ring) + genus_one_row(ring, Q(1, 3))
    sol = solve_dr_type(AnsatzProblem(ring, known, 2))
    fixed = sol.pin(ring.monomial(CONE, eps=4, factors=((1, 2, 2),)), Q(0))
    fixed = fixed.pin(ring.monomial(CONE, hbar=2, factors=((1, 2, 2),)),
                      Q(1, 2))
    assert fixed.dimension() == 1
    point = fixed.genus_part()
    assert is_czero(coeff_of(point, 4, 0, ((1, 2, 2),)))
    assert coeff_of(point, 0, 2, ((1, 2, 2),)) == (Q(1, 2), Q(0))


def test_linear_system_rejects_quadratic_unknowns():
    # unknown j is _c _j^j: c1 = _c, c2 = _c _j
    ring = RingContext(params=("_c", "_j"), mode="classical")
    c1 = ring.param("_c")
    c2 = ring.monomial(CONE, params=(("_c", 1), ("_j", 1)))
    sys = _LinearSystem()
    sys.take(("probe",), c1 * ring.u() + c2 * ring.u() - ring.u())
    assert list(sys.rows.values()) == [[{0: CONE, 1: CONE}, CONE]]
    for quadratic in (c1 * c1 * ring.u(), c1 * c2 * ring.u()):
        with pytest.raises(AssertionError):
            sys.take(("probe",), quadratic)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n_vars=st.integers(1, 2), gc=st.integers(0, 6))
def test_lift_rekeys_as_decode_then_encode(data, n_vars, gc):
    base = RingContext(n_vars=n_vars, params=("a", "b"), mode="quantum")
    cring = RingContext(n_vars=n_vars, params=("a", "b", "_c", "_j"),
                        mode="quantum",
                        window=TruncationWindow(genus_cutoff=gc))
    f = data.draw(poly_strategy(base, max_eps=4))
    want = {}
    for key, v in f.terms.items():
        key = cring.encode(*base.decode(key))
        if not cring._clip(key)[0]:
            want[key] = v
    assert cring.lift(f).terms == want


def test_lift_keeps_the_claim_and_caps_it_at_a_drop():
    base = RingContext(params=("a",), mode="quantum")
    u, eps = base.u(), base.monomial(1, eps=1)
    wide = RingContext(params=("a", "_c"), mode="quantum")
    assert wide.lift((u * u + u).with_exact_u(1)).exact_u == 1
    # a term above the u-degree cutoff is dropped and caps the claim there
    low = RingContext(params=("a",), mode="quantum",
                      window=TruncationWindow(None, 2))
    lifted = low.lift(u ** 3 + u)
    assert (lifted.exact_u, lifted.terms) == (2, low.u().terms)
    assert low.lift((u ** 3 + u).with_exact_u(1)).exact_u == 1
    # a genus drop claims nothing, as parse's does
    short = RingContext(params=("a",), mode="quantum",
                        window=TruncationWindow(2))
    assert short.lift(eps ** 3 * u + u).exact_u is None


@pytest.mark.parametrize("target", [
    dict(params=("b", "a", "_c")), dict(params=("a",)),
    dict(n_vars=2, params=("a", "b")),
    dict(params=("a", "b"), mode="classical")])
def test_lift_refuses_a_ring_that_does_not_extend(target):
    base = RingContext(params=("a", "b"), mode="quantum")
    with pytest.raises(ContextMismatch):
        RingContext(**{"mode": "quantum", **target}).lift(base.u())


@pytest.mark.parametrize("name", ["_c", "_j"])
def test_reserved_parameter_names(name):
    ring = RingContext(params=(name,), mode="quantum",
                       window=TruncationWindow(genus_cutoff=2))
    with pytest.raises(ValueError, match="reserved"):
        solve_dr_type(AnsatzProblem(ring, cubic(ring), 1))


def test_solution_values_validation():
    ring = qring(2)
    sol = solve_dr_type(AnsatzProblem(ring, cubic(ring), 1, d_check=2))
    with pytest.raises(ValueError):
        sol.coefficients([Q(1), Q(2), Q(3)])
    mono = ring.monomial(CONE, hbar=1, factors=((1, 0, 1),))
    for bad in (0.5, "x", (1, 0.5), (2, 0, 2)):
        with pytest.raises(TypeError):
            sol.coefficients([bad])
        with pytest.raises(TypeError):
            sol.pin(mono, bad)


def test_serialize_roundtrip():
    ring = qring(2)
    sol = solve_dr_type(AnsatzProblem(ring, cubic(ring), 1, d_check=2))
    doc = sol.serialize()
    assert doc["genus"] == 1 and doc["d_check"] == 2
    assert doc["dimension"] == 2 == len(doc["kernel_generators"])
    assert parse(doc["basis_point"], ring).terms == sol.genus_part().terms
    backs = [parse(d, ring) for d in doc["kernel_generators"]]
    assert [b.terms for b in backs] == \
        [sol._direction(j).terms for j in range(2)]
