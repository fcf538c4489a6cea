import hashlib
import json
import re

import pytest

from loophier.rat import Q
from loophier.errors import (ContextMismatch, ModeMismatch, NotExact,
                             WeightOneComponent)
from loophier.ring import RingContext, dx, euler_D, pretty
from loophier.functionals import integrate
from loophier.recursion import (Hierarchy, HierarchySpec, evolve_density,
                                flow_bracket, recursion_step)
from loophier.presets import (kdv, kdv_constants, kdv_dispersionless, ilw,
                              toda, spin3, spin4, spin5, rank1, build, PRESETS)


def scalar_table(ring):
    """The first four classical scalar densities, written out by hand."""
    u, u1, u2, u4, u6 = (ring.u(), ring.u(1, 1), ring.u(1, 2), ring.u(1, 4),
                         ring.u(1, 6))
    e2 = ring.monomial(Q(1), eps=2)
    e4 = ring.monomial(Q(1), eps=4)
    e6 = ring.monomial(Q(1), eps=6)
    return {
        -1: u,
        0: u ** 2 / 2 + e2 * u2 / 24,
        1: u ** 3 / 6 + e2 * u * u2 / 24 + e4 * u4 / 1152,
        2: (u ** 4 / 24 + e2 * u ** 2 * u2 / 48
            + e4 * (u2 ** 2 * Q(7, 5760) + u * u4 / 1152)
            + e6 * u6 / 82944),
    }


def quantum_corrections(ring):
    """u-dependent and constant quantum additions to the scalar table."""
    u, u2, u4 = ring.u(), ring.u(1, 2), ring.u(1, 4)
    ih = ring.monomial((Q(0), Q(1)), hbar=1)
    ihe2 = ring.monomial((Q(0), Q(1)), eps=2, hbar=1)
    return {
        0: -ih / 24,
        1: -ih * (u + u2) / 24 - ihe2 / 2880,
        2: (-ih * (u * u2 * 2 + u ** 2) / 48
            - ihe2 * (u + u2 * 5 + u4 * 4) / 2880
            - ring.monomial((Q(0), Q(1, 120960)), eps=4, hbar=1)
            - ring.monomial(Q(7, 5760), hbar=2)),
    }


# ---------------------------------------------------------------------------
# scalar hierarchy against the hand tables


def test_classical_scalar_densities_match_table():
    h = Hierarchy(kdv(mode="classical"))
    table = scalar_table(h.ring)
    for d in range(-1, 3):
        assert h.density(1, d) == table[d], pretty(h.density(1, d))


def test_quantum_scalar_densities_match_table():
    h = Hierarchy(kdv(mode="quantum"))
    table = scalar_table(h.ring)
    corr = quantum_corrections(h.ring)
    assert h.density(1, -1) == table[-1]
    for d in range(0, 3):
        assert h.density(1, d) == table[d] + corr[d]


def without_constants(spec):
    """The spec with its generator and no constants."""
    return HierarchySpec(spec.name, spec.ring, spec.generator)


def test_zero_policy_differs_by_constants_only():
    spec = kdv(mode="quantum")
    ht = Hierarchy(spec)
    hz = Hierarchy(without_constants(spec))
    for d in range(0, 3):
        delta = ht.density(1, d) - hz.density(1, d)
        assert delta == delta.constant_part()
        assert delta == spec.constants.get((1, d), spec.ring.zero())


def test_constants_chain_property():
    # the u-free part of each level is d/du^1 of the next one's, at u = 0
    h = Hierarchy(kdv(mode="quantum"))
    h.generate(2)
    assert h.constants_chain_residual(1, 0).is_zero()
    assert h.constants_chain_residual(1, 1).is_zero()


def test_self_consistency_regenerates_generator():
    for mode in ("classical", "quantum"):
        h = Hierarchy(kdv(mode=mode))
        assert h.self_consistency_residual().is_zero()


def test_regeneration_from_level_two_functional():
    # feeding the generated level (1,1) back in as a generator reproduces
    # the same flows one level down
    base = Hierarchy(kdv(mode="classical"))
    spec2 = HierarchySpec("kdv-re", base.ring, base.density(1, 1))
    again = Hierarchy(spec2)
    for d in range(-1, 2):
        assert again.density(1, d) == base.density(1, d)


def test_dispersionless_generator_gives_quartic():
    ring = RingContext(n_vars=1)
    h = Hierarchy(HierarchySpec("disp", ring, ring.u() ** 3 / 6))
    assert h.density(1, 2) == ring.u() ** 4 / 24


def test_bad_constants_rejected():
    ring = RingContext(n_vars=1, mode="quantum")
    gen = ring.u() ** 3 / 6
    with pytest.raises(ValueError):
        HierarchySpec("bad", ring, gen, constants={(1, 0): ring.u()})


@pytest.mark.parametrize("key, value, error, text", [
    # a constant from another ring, a value that is no polynomial and a
    # key that is no (alpha, p) pair fail at construction, naming the key
    ((1, 0), lambda R: RingContext(n_vars=1).const(1), ContextMismatch,
     "constant for (1, 0)"),
    ((1, 1), lambda R: 1, TypeError, "constant for (1, 1)"),
    (1, lambda R: R.const(1), TypeError, "constant key 1 "),
    ((1, 0, 2), lambda R: R.const(1), TypeError, "constant key (1, 0, 2)"),
    ((1, "0"), lambda R: R.const(1), TypeError, "constant key (1, '0')"),
], ids=["other-ring", "not-a-poly", "int-key", "triple-key", "str-level"])
def test_constants_are_checked_at_construction(key, value, error, text):
    ring = RingContext(n_vars=1, mode="quantum")
    with pytest.raises(error, match=re.escape(text)):
        HierarchySpec("bad", ring, ring.u() ** 3 / 6,
                      constants={key: value(ring)})


def test_a_spec_refuses_a_wrong_typed_ring_or_generator():
    ring = RingContext(n_vars=1)
    with pytest.raises(TypeError, match="generator"):
        HierarchySpec("x", ring, 5)
    with pytest.raises(TypeError, match="ring"):
        HierarchySpec("x", None, ring.u() ** 3 / 6)


@pytest.mark.parametrize("generator, error, level", [
    # u u_1^2 is not integrable: the flow of G_{1,0} is not exact
    (lambda u, u1: u ** 3 / 6 + u * u1 ** 2, NotExact, "G_{1,1}"),
    # a quadratic generator makes the flow of G_{1,-1} weight one
    (lambda u, u1: u ** 2 / 2, WeightOneComponent, "G_{1,0}"),
])
def test_obstructed_recursion_names_its_level(generator, error, level):
    ring = RingContext(n_vars=1)
    spec = HierarchySpec("obstructed", ring,
                         generator(ring.u(), ring.u(1, 1)))
    with pytest.raises(error) as info:
        Hierarchy(spec).generate(3)
    assert str(info.value).startswith(level + ": ")
    assert type(info.value.__cause__) is error


@pytest.mark.parametrize("generator, p, obstructed", [
    (lambda u, u1: u ** 3 / 6 + u * u1 ** 2, 1, (True, False)),
    (lambda u, u1: u ** 2 / 2, 0, (False, True)),
    (lambda u, u1: u ** 3 / 6 + u * u1 ** 2, 0, (False, False)),
    (lambda u, u1: u ** 3 / 6, 3, (False, False))])
def test_recursion_step_recomposes_the_bracket(generator, p, obstructed):
    # B = dx(m) + not_exact, with m = (D - 1) next + weight_one; the
    # obstructions are nonzero exactly where the hierarchy raises
    ring = RingContext(n_vars=1)
    F = integrate(generator(ring.u(), ring.u(1, 1)))
    g = ring.u()
    for _ in range(p + 1):
        prev = g
        g, not_exact, weight_one = recursion_step(prev, F)
    m = euler_D(g) - g + weight_one
    assert dx(m) + not_exact == flow_bracket(prev, F)
    assert weight_one == m.weight_part(1)
    assert (not not_exact.is_zero(), not weight_one.is_zero()) == obstructed


def test_recursion_step_is_the_hierarchy_level():
    H = Hierarchy(without_constants(kdv(mode="quantum")))
    F = integrate(H.spec.generator)
    for p in range(3):
        nxt, not_exact, weight_one = recursion_step(H.density(1, p - 1), F)
        assert nxt == H.density(1, p)
        assert not_exact.is_zero() and weight_one.is_zero()


@pytest.mark.parametrize("alpha", [0, 3])
def test_generate_rejects_alpha_out_of_range(alpha):
    H = Hierarchy(toda(mode="classical"))
    with pytest.raises(ValueError, match=rf"alpha = {alpha} .*1\.\.2"):
        H.generate(1, alphas=[alpha])


# ---------------------------------------------------------------------------
# structure identities


def test_string_equation_scalar():
    for mode in ("classical", "quantum"):
        h = Hierarchy(kdv(mode=mode))
        for p in range(0, 3):
            assert h.string_residual(1, p).is_zero(), (mode, p)


def test_second_recursion_scalar():
    h = Hierarchy(kdv(mode="quantum"))
    for p in range(-1, 2):
        assert h.second_recursion_residual(1, 1, p).is_zero(), p


def test_commutativity_scalar():
    h = Hierarchy(kdv(mode="quantum"))
    pairs = [((1, i), (1, j)) for i in range(0, 3) for j in range(i, 3)]
    for ap, bq in pairs:
        assert h.commute_residual(ap, bq).is_zero(), (ap, bq)


def test_report_is_clean():
    h = Hierarchy(kdv(mode="classical"))
    for entry in h.report(up_to=2):
        assert entry["residual"] == {}, entry


# ---------------------------------------------------------------------------
# tau structure


def test_tau_structure_values():
    h = Hierarchy(kdv(mode="classical"))
    ring = h.ring
    h0 = ring.u() ** 2 / 2 + ring.monomial(Q(1, 12), eps=2,
                                           factors=((1, 2, 1),))
    assert h.tau_density(1, -1) == ring.u()
    assert h.tau_density(1, 0) == h0
    assert h.omega(1, 1, 1, 0) == h0
    assert h.omega(1, 0, 1, 0) == ring.u()
    assert h.tau_symmetry_residual(1, 1, 1, 2).is_zero()


def test_omega_vanishes_at_zero_field():
    h = Hierarchy(kdv(mode="classical"))
    for (p, q) in ((0, 0), (1, 0), (1, 1), (2, 1)):
        om = h.omega(1, p, 1, q)
        assert om.constant_part().is_zero()
        assert dx(om) == flow_bracket(h.tau_density(1, p - 1),
                                      h.functional(1, q))


def test_tau_structure_is_classical_only():
    h = Hierarchy(kdv(mode="quantum"))
    with pytest.raises(ModeMismatch):
        h.omega(1, 0, 1, 0)


def test_omega_needs_nonnegative_levels():
    h = Hierarchy(kdv(mode="classical"))
    with pytest.raises(ValueError):
        h.omega(1, -1, 1, 0)


# ---------------------------------------------------------------------------
# dispersionless closed form


def test_dispersionless_expansion_matches_generated():
    spec = kdv(mode="quantum")
    h = Hierarchy(spec)
    closed = kdv_dispersionless(spec.ring, 3)
    for d in range(-1, 4):
        assert h.density(1, d).eps_zero() == closed[d], d


def test_dispersionless_expansion_leading_terms():
    ring = kdv(mode="quantum").ring
    closed = kdv_dispersionless(ring, 0)
    assert closed[-1] == ring.u()
    expected = (ring.u() ** 2 / 2
                + ring.monomial((Q(0), Q(-1, 24)), hbar=1))
    assert closed[0] == expected


def test_dispersionless_requires_quantum():
    with pytest.raises(ValueError):
        kdv_dispersionless(RingContext(n_vars=1), 1)


# ---------------------------------------------------------------------------
# evolution


def test_evolve_translation_flow():
    h = Hierarchy(kdv(mode="classical"))
    ring = h.ring
    u = ring.u()
    t = Q(1, 3)
    out = evolve_density(h, u, {(1, 0): t}, order=3)
    expected = (u + ring.u(1, 1).scale(t) + ring.u(1, 2).scale(t * t / 2)
                + ring.u(1, 3).scale(t ** 3 / 6))
    assert out == expected


def test_evolve_first_nontrivial_flow():
    h = Hierarchy(kdv(mode="classical"))
    ring = h.ring
    u = ring.u()
    out = evolve_density(h, u, {(1, 1): Q(1)}, order=1)
    expected = u + dx(u ** 2 / 2 + ring.monomial(Q(1, 12), eps=2,
                                                 factors=((1, 2, 1),)))
    assert out == expected


def test_evolve_keeps_parameters_of_a_time():
    # a time carrying the formal parameter q scales the flow by q
    h = Hierarchy(toda(mode="classical"))
    ring = h.ring
    t = ring.param("q")
    out = evolve_density(h, ring.u(1), {(1, 0): t}, order=1)
    assert out == ring.u(1) + ring.param("q") * ring.u(1, 1)


def test_evolve_no_times_is_identity():
    h = Hierarchy(kdv(mode="classical"))
    f = h.ring.u() ** 2
    assert evolve_density(h, f, {}, order=4) == f


# ---------------------------------------------------------------------------
# normal coordinates


def test_normal_coordinates_scalar_identity():
    h = Hierarchy(kdv(mode="classical"))
    assert h.normal_coordinates()[1] == h.ring.u()


def test_normal_coordinates_spin_families():
    h3 = Hierarchy(spin3(mode="classical"))
    nc3 = h3.normal_coordinates()
    for a in (1, 2):
        assert nc3[a] == h3.ring.u(a)

    h4 = Hierarchy(spin4(mode="classical"))
    nc4 = h4.normal_coordinates()
    r4 = h4.ring
    assert nc4[1] == r4.u(1) + r4.monomial(Q(1, 96), eps=2,
                                           factors=((3, 2, 1),))
    assert nc4[2] == r4.u(2)
    assert nc4[3] == r4.u(3)

    h5 = Hierarchy(spin5())
    nc5 = h5.normal_coordinates()
    r5 = h5.ring
    assert nc5[1] == r5.u(1) + r5.monomial(Q(1, 60), eps=2,
                                           factors=((3, 2, 1),))
    assert nc5[2] == r5.u(2) + r5.monomial(Q(1, 60), eps=2,
                                           factors=((4, 2, 1),))
    assert nc5[3] == r5.u(3)
    assert nc5[4] == r5.u(4)


def test_spin_tau_densities():
    h3 = Hierarchy(spin3(mode="classical"))
    r3 = h3.ring
    expected3 = (r3.u(1) * r3.u(2)
                 + r3.monomial(Q(1, 6), eps=2, factors=((1, 2, 1),)))
    assert h3._gen_func.var_deriv(1) == expected3

    h4 = Hierarchy(spin4(mode="classical"))
    r4 = h4.ring
    sq = r4.u(3) ** 2
    expected4 = (r4.u(1) * r4.u(3) + r4.u(2) ** 2 / 2
                 + r4.monomial(Q(1, 4), eps=2, factors=((1, 2, 1),))
                 + dx(dx(sq)).scale(Q(1, 64)) * r4.monomial(Q(1), eps=2)
                 + r4.monomial(Q(3, 640), eps=4, factors=((3, 4, 1),)))
    assert h4._gen_func.var_deriv(1) == expected4

    h5 = Hierarchy(spin5())
    r5 = h5.ring
    expected5 = (r5.u(1) * r5.u(4) + r5.u(2) * r5.u(3)
                 + r5.monomial(Q(1, 3), eps=2, factors=((1, 2, 1),))
                 + dx(dx(r5.u(3) * r5.u(4))).scale(Q(1, 20))
                 * r5.monomial(Q(1), eps=2)
                 + r5.monomial(Q(11, 900), eps=4, factors=((3, 4, 1),)))
    assert h5._gen_func.var_deriv(1) == expected5


def test_spin3_commutativity_and_self_consistency():
    h = Hierarchy(spin3(mode="classical"))
    assert h.self_consistency_residual().is_zero()
    for ap, bq in [((1, 0), (2, 0)), ((1, 0), (1, 1)), ((2, 0), (1, 1))]:
        assert h.commute_residual(ap, bq).is_zero(), (ap, bq)


# ---------------------------------------------------------------------------
# parametric presets


def test_ilw_generator_coefficients():
    g = ilw(mode="quantum", genus_cutoff=6).generator
    uu = lambda k: ((1, 0, 1), (1, k, 1))
    assert g.coefficient_of(eps=2, factors=uu(2)) == (Q(1, 24), Q(0))
    assert g.coefficient_of(eps=4, factors=uu(4),
                            params=(("mu", 1),)) == (Q(1, 1440), Q(0))
    assert g.coefficient_of(eps=6, factors=uu(6),
                            params=(("mu", 2),)) == (Q(1, 60480), Q(0))
    assert g.coefficient_of(hbar=1, factors=uu(2),
                            params=(("mu", 1),)) == (Q(0), Q(-1, 24))
    assert g.coefficient_of(eps=2, hbar=1, factors=uu(4),
                            params=(("mu", 2),)) == (Q(0), Q(-1, 1440))
    assert g.coefficient_of(hbar=1,
                            factors=((1, 0, 1),)) == (Q(0), Q(-1, 24))


def test_ilw_reduces_to_scalar_at_mu_zero():
    h = Hierarchy(ilw(mode="quantum", genus_cutoff=6))
    kh = Hierarchy(without_constants(kdv(mode="quantum")))
    for d in (0, 1):
        mu0 = {k: v for k, v in h.density(1, d).monomials() if not k[2]}
        ref = {k: v for k, v in kh.density(1, d).monomials()
               if k[0] + 2 * k[1] <= 6}
        assert mu0 == ref


def test_ilw_identities():
    h = Hierarchy(ilw(mode="quantum", genus_cutoff=6))
    pairs = [((1, i), (1, j)) for i in range(0, 3) for j in range(i + 1, 3)]
    for ap, bq in pairs:
        assert h.commute_residual(ap, bq).is_zero(), (ap, bq)
    for p in range(0, 3):
        assert h.string_residual(1, p).is_zero(), p


def test_rank1_family_consistency():
    # the mu-hierarchy is the s1 = -mu/12, s2 = mu^3/360 slice of the
    # three-parameter family; its generator carries a single power of
    # hbar, so every higher row must cancel in the slice
    g = rank1(mode="quantum", genus=3).generator
    u2sq = ((1, 2, 2),)
    u2cb = ((1, 2, 3),)
    u3sq = ((1, 3, 2),)
    s1 = Q(-1, 12)          # times mu
    s2 = Q(1, 360)          # times mu^3
    c_eps4 = g.coefficient_of(eps=4, factors=u2sq, params=(("s1", 1),))
    assert c_eps4[0] * s1 == Q(1, 1440)
    c_mixed = g.coefficient_of(eps=2, hbar=1, factors=u2sq,
                               params=(("s1", 2),))
    assert c_mixed == (Q(0), Q(-1, 10))
    c_h1 = g.coefficient_of(hbar=2, factors=u2sq, params=(("s1", 3),))
    c_h2 = g.coefficient_of(hbar=2, factors=u2sq, params=(("s2", 1),))
    assert c_h1[0] * s1 ** 3 + c_h2[0] * s2 == Q(0)
    # classical genus-three rows: the cubic one cancels, the quadratic one
    # reproduces the mu^2 eps^6 weight of the deformed scalar generator
    a1 = g.coefficient_of(eps=6, factors=u2cb, params=(("s1", 3),))
    a2 = g.coefficient_of(eps=6, factors=u2cb, params=(("s2", 1),))
    assert a1[0] * s1 ** 3 + a2[0] * s2 == Q(0)
    b = g.coefficient_of(eps=6, factors=u3sq, params=(("s1", 2),))
    assert b[0] * s1 ** 2 == Q(-1, 60480)


def test_rank1_structure():
    h = Hierarchy(rank1(mode="quantum", genus=2))
    assert h.self_consistency_residual().is_zero()
    assert h.commute_residual((1, 0), (1, 1)).is_zero()
    assert h.string_residual(1, 1).is_zero()


def test_toda_level_zero_functionals():
    spec = toda(mode="quantum")
    ring = spec.ring
    h = Hierarchy(spec)
    assert h.functional(1, 0) == integrate(ring.u(1) * ring.u(2))

    fact = [1]
    for n in range(1, 8):
        fact.append(fact[-1] * n)
    smooth = ring.zero()
    for m in range(0, 3):
        smooth = smooth + ring.monomial(Q(1, 4 ** m * fact[2 * m + 1]),
                                        eps=2 * m, factors=((2, 2 * m, 1),))
    expo = ring.one()
    power = ring.one()
    for n in range(1, 7):
        power = power * smooth
        if power.is_zero():
            break
        expo = expo + power / fact[n]
    expected = integrate(ring.u(1) ** 2 / 2
                         + ring.param("q") * (expo - ring.u(2)))
    assert h.functional(2, 0) == expected


def test_toda_identities():
    h = Hierarchy(toda(mode="quantum"))
    assert h.self_consistency_residual().is_zero()
    for ap, bq in [((1, 0), (2, 0)), ((1, 0), (1, 1)), ((2, 0), (1, 1))]:
        assert h.commute_residual(ap, bq).is_zero(), (ap, bq)
    for a in (1, 2):
        for p in range(0, 2):
            assert h.string_residual(a, p).is_zero(), (a, p)
    for a in (1, 2):
        for b in (1, 2):
            for p in range(-1, 1):
                assert h.second_recursion_residual(a, b, p).is_zero(), \
                    (a, b, p)


def test_toda_density_claims():
    # each claim comes from the operands' exact_u, floors and genus rooms:
    # the unknown part G_{a,0} may have above its claim 5 can be genus 0,
    # and at order 3 (hbar^2, genus room 0) it meets the generator's genus-0
    # terms of u-degree 4, so G_{a,1} is claimed through 3, and G_{a,2}
    # through 1 in turn
    h = Hierarchy(toda(mode="quantum"))
    h.generate(2)
    claims = {(a, p): h.density(a, p).exact_u
              for a in (1, 2) for p in (0, 1, 2)}
    assert claims == {(1, 0): 5, (1, 1): 3, (1, 2): 1,
                      (2, 0): 5, (2, 1): 3, (2, 2): 1}
    # and each is sound: a window with room up to u-degree 10 agrees with
    # every level through its claim
    wide = Hierarchy(toda(mode="quantum", u_degree_cutoff=10))
    for key, e in claims.items():
        assert (h.density(*key).truncate_u(e).terms
                == wide.density(*key).truncate_u(e).terms), key


def test_toda_report_claims():
    # the commutators read each level through its reduced density, which
    # claims no less than the density; the claims of the default window
    # are pinned, and every residual is empty through them
    h = Hierarchy(toda(mode="quantum"))
    h.generate(2)
    levels = [(a, p) for a in (1, 2) for p in (0, 1)]
    commute = {}
    for i, ap in enumerate(levels):
        for bq in levels[i + 1:]:
            residual = h.commute_residual(ap, bq)
            assert residual.is_zero()
            commute[ap, bq] = residual.exact_u
    assert commute == {((1, 0), (1, 1)): 1, ((1, 0), (2, 0)): 3,
                       ((1, 0), (2, 1)): 1, ((1, 1), (2, 0)): 2,
                       ((1, 1), (2, 1)): 2, ((2, 0), (2, 1)): 1}
    second = {}
    for a in (1, 2):
        for b in (1, 2):
            residual = h.second_recursion_residual(a, b, 0)
            assert residual.is_zero()
            second[a, b] = residual.exact_u
    assert second == {(1, 1): 2, (1, 2): 2, (2, 1): 2, (2, 2): 2}


def test_wide_toda_claims_and_report():
    # genus 6 and u-degree 8: generation brackets with the generator's
    # reduced density, and report(2) with every level's
    h = Hierarchy(toda(mode="quantum", genus_cutoff=6, u_degree_cutoff=8))
    h.generate(3)
    claims = {(a, p): h.density(a, p).exact_u
              for a in (1, 2) for p in range(4)}
    assert claims == {(a, p): e for a in (1, 2)
                      for p, e in enumerate((7, 4, 1, 0))}
    report = h.report(2)
    assert len(report) == 25
    assert all(not entry["residual"] for entry in report)


# ---------------------------------------------------------------------------
# catalog and serialization


def test_catalog_names():
    assert set(PRESETS) == {"kdv", "ilw", "toda", "spin3", "spin4", "spin5",
                            "rank1"}
    spec = build("kdv", mode="classical")
    assert spec.name == "kdv"
    with pytest.raises(KeyError):
        build("nope")


@pytest.mark.parametrize("preset", [kdv, ilw, toda, spin3, spin4, rank1],
                         ids=lambda preset: preset.__name__)
def test_a_preset_refuses_an_unknown_mode(preset):
    # the preset's ring refuses it
    with pytest.raises(ValueError, match="mode"):
        preset(mode="bogus")


def test_hierarchy_serialization_roundtrip():
    from loophier.ring import parse
    h = Hierarchy(kdv(mode="quantum"))
    doc = h.serialize(up_to=1)
    assert doc["spec"]["mode"] == "quantum"
    assert set(doc["densities"]) == {"1,-1", "1,0", "1,1"}
    back = parse(doc["densities"]["1,0"], h.ring)
    assert back == h.density(1, 0)


# sha256 of the canonical JSON of Hierarchy.serialize(), for presets whose
# documents the benchmark does not pin: the keys, the parameter names and
# the coefficient texts must come out byte for byte as they always have
PINNED = {
    (kdv, "quantum", 3):
        "d84d341d006b2045a0546143f963a6640abdcbef94cc0480f7c7cb2d82e04d05",
    (spin3, "classical", 2):
        "b6946e1922e87b4424d8fd925322ef992704875fa49a67e2fec83136b27d87b8",
    (spin3, "quantum", 2):
        "ea022846e9fff947631e408076793c66acacfb8393f7f644ee84b25fb4299f76",
    (ilw, "quantum", 2):
        "2080fea089ee190ede939947f0b318b2562c702cbee58019710abf61a1bd90c3",
    (rank1, "quantum", 2):
        "fdb53df17854b154447fdc83af54b5688ce79b40306e83a4f97b058c2ee0abe3",
}


@pytest.mark.parametrize("case", PINNED, ids=lambda c: (
    f"{c[0].__name__}-{c[1]}-{c[2]}"))
def test_serialized_hierarchy_is_pinned(case):
    preset, mode, up_to = case
    doc = Hierarchy(preset(mode=mode)).serialize(up_to)
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED[case]


@pytest.mark.parametrize("key", [(2, 0), (0, 1), (1, -1), (1, -2)])
def test_constants_no_level_reads_are_rejected(key):
    # Hierarchy.density injects constants only at the levels a step
    # computes: 1 <= alpha <= n_vars and p >= 0
    spec = kdv(mode="quantum")
    ring = spec.ring
    consts = kdv_constants(ring)
    HierarchySpec("kdv", ring, spec.generator, constants=consts)
    with pytest.raises(ValueError):
        HierarchySpec("kdv", ring, spec.generator,
                      constants={**consts, key: consts[1, 0]})
