"""Catalog of generating Hamiltonians for the bundled hierarchies.

Each factory builds a ring, transcribes the generator density exactly
(rational coefficients, Bernoulli numbers computed on demand, truncated
series materialized through the requested window), and returns a
HierarchySpec ready for the recursion engine.
"""

from math import factorial

from .coeffs import I_POW, cscale
from .rat import Q, bernoulli
from .ring import RingContext, TruncationWindow
from .recursion import HierarchySpec

__all__ = [
    "kdv", "ilw", "toda", "spin3", "spin4", "spin5", "rank1",
    "kdv_constants", "kdv_dispersionless", "ilw_miura_generator",
    "ilw_expected_miura_image", "ilw_expected_operator_coeffs",
    "PRESETS", "build",
]


# -- KdV ---------------------------------------------------------------------

def kdv(mode="quantum", genus_cutoff=None, u_degree_cutoff=None):
    """Scalar hierarchy generated by the cubic density.

    The quantum generator carries the extra -i hbar u/24 term; it only
    shifts the functional by a Casimir, so both modes produce the same
    classical flows in the hbar -> 0 limit.
    """
    window = None
    if genus_cutoff is not None or u_degree_cutoff is not None:
        window = TruncationWindow(genus_cutoff, u_degree_cutoff)
    ring = RingContext(mode=mode, window=window)
    gen = (ring.u() ** 3 / 6
           + ring.monomial(Q(1, 24), eps=2) * ring.u(1, 0) * ring.u(1, 2))
    if mode == "quantum":
        gen = gen + ring.monomial((Q(0), Q(-1, 24)), hbar=1) * ring.u()
    constants = kdv_constants(ring) if mode == "quantum" else None
    return HierarchySpec("kdv", ring, gen, constants=constants)


def kdv_constants(ring):
    """The u-free terms of the first three quantum levels."""
    return {
        (1, 0): ring.monomial((Q(0), Q(-1, 24)), hbar=1),
        (1, 1): ring.monomial((Q(0), Q(-1, 2880)), eps=2, hbar=1),
        (1, 2): (ring.monomial((Q(0), Q(-1, 120960)), eps=4, hbar=1)
                 + ring.monomial(Q(-7, 5760), hbar=2)),
    }


def kdv_dispersionless(ring, d_max):
    """Dispersionless limit of the quantum scalar hierarchy in closed form.

    Returns {d: density at eps = 0} for -1 <= d <= d_max, built from the
    generating series (z^-2 / sinc-type factor) e^{z T u} - z^-2 where the
    two sinc-type series carry i hbar and -i hbar respectively.
    """
    if ring.mode != "quantum":
        raise ValueError("the closed form is quantum")
    top = d_max + 2
    # series in z of the exponent: entry[2m+1] = (-i hbar)^m u_{2m}/(4^m (2m+1)!)
    expo = [ring.zero() for _ in range(top + 1)]
    m = 0
    while 2 * m + 1 <= top:
        c = cscale(I_POW[-m % 4], 1, 4 ** m * factorial(2 * m + 1))
        expo[2 * m + 1] = ring.monomial(c, hbar=m, factors=((1, 2 * m, 1),))
        m += 1
    # exp of the exponent series, truncated at z^top
    ezt = [ring.one()] + [ring.zero()] * top
    power = [ring.one()] + [ring.zero()] * top
    for n in range(1, top + 1):
        nxt = [ring.zero()] * (top + 1)
        for a in range(top + 1):
            if power[a].is_zero():
                continue
            for b in range(1, top + 1 - a):
                if not expo[b].is_zero():
                    nxt[a + b] = nxt[a + b] + power[a] * expo[b]
        power = nxt
        for a in range(top + 1):
            ezt[a] = ezt[a] + power[a] / factorial(n)
    # reciprocal of the hbar-weighted sinc series, in z^2 steps
    half = top // 2
    s = [ring.monomial(cscale(I_POW[m % 4], 1, 4 ** m * factorial(2 * m + 1)),
                       hbar=m)
         for m in range(half + 1)]
    inv = [ring.one()] + [ring.zero()] * half
    for n in range(1, half + 1):
        acc = ring.zero()
        for k in range(1, n + 1):
            acc = acc + s[k] * inv[n - k]
        inv[n] = -acc
    out = {}
    for d in range(-1, d_max + 1):
        acc = ring.zero()
        for a in range(half + 1):
            b = d + 2 - 2 * a
            if 0 <= b <= top:
                acc = acc + inv[a] * ezt[b]
        out[d] = acc
    return out


# -- ILW ---------------------------------------------------------------------

def _abs_bern(g):
    b = bernoulli(2 * g)
    return b if b > 0 else -b


def ilw(mode="quantum", genus_cutoff=6):
    """Scalar hierarchy deforming the cubic one by a parameter mu.

    The generator is an infinite series, so a finite genus window is
    mandatory; the series is materialized through that window.
    """
    if genus_cutoff is None:
        raise ValueError("ilw needs a finite genus cutoff")
    ring = RingContext(params=("mu",), mode=mode,
                       window=TruncationWindow(genus_cutoff=genus_cutoff))
    gen = ring.u() ** 3 / 6
    for g in range(1, genus_cutoff // 2 + 1):
        c = _abs_bern(g) / (2 * factorial(2 * g))
        gen = gen + ring.monomial(
            c, eps=2 * g, factors=((1, 0, 1), (1, 2 * g, 1)),
            params=((("mu", g - 1),) if g > 1 else ()))
    if mode == "quantum":
        gen = gen + ring.monomial((Q(0), Q(-1, 24)), hbar=1) * ring.u()
        for g in range(1, genus_cutoff // 2 + 1):
            c = _abs_bern(g) / (2 * factorial(2 * g))
            gen = gen + ring.monomial(
                (Q(0), -c), eps=2 * g - 2, hbar=1,
                factors=((1, 0, 1), (1, 2 * g, 1)), params=(("mu", g),))
    return HierarchySpec("ilw", ring, gen)


def ilw_miura_generator(ring, genus_cutoff):
    """Degree -2 density generating the mu-hierarchy's normalizing map."""
    out = ring.zero()
    for g in range(1, genus_cutoff // 2 + 1):
        c = (Q(2 ** (2 * g - 1) - 1, 2 ** (2 * g - 1)) * _abs_bern(g)
             / factorial(2 * g))
        out = out + ring.monomial(c, eps=2 * g,
                                  factors=((1, 2 * g - 2, 1),),
                                  params=(("mu", g),))
    return out


def ilw_expected_miura_image(ring, genus_cutoff):
    """u plus the even-derivative series with halving-weight coefficients."""
    out = ring.u()
    for g in range(1, genus_cutoff // 2 + 1):
        c = (Q(2 ** (2 * g - 1) - 1, 2 ** (2 * g - 1)) * _abs_bern(g)
             / factorial(2 * g))
        out = out + ring.monomial(c, eps=2 * g, factors=((1, 2 * g, 1),),
                                  params=(("mu", g),))
    return out


def ilw_expected_operator_coeffs(genus_cutoff):
    """{derivative order: (rational, mu power)} for the pushed operator."""
    out = {1: (Q(1), 0)}
    for g in range(1, genus_cutoff // 2 + 1):
        out[2 * g + 1] = ((2 * g - 1) * _abs_bern(g) / factorial(2 * g), g)
    return out


# -- Toda --------------------------------------------------------------------

def toda(mode="quantum", genus_cutoff=4, u_degree_cutoff=6):
    """Two-field hierarchy with an exponential interaction of weight q.

    Variable 1 is the linear field, variable 2 the exponential one; the
    metric is the off-diagonal pairing.  Both series (the Bernoulli tail
    and the exponential) are materialized through the window.
    """
    if genus_cutoff is None or u_degree_cutoff is None:
        raise ValueError("toda needs finite genus and u-degree cutoffs")
    window = TruncationWindow(genus_cutoff, u_degree_cutoff)
    eta = ((0, 1), (1, 0))
    ring = RingContext(n_vars=2, eta=eta, params=("q",), mode=mode,
                       window=window)
    u1, u2 = ring.u(1), ring.u(2)
    gen = u1 * u1 * u2 / 2
    for g in range(1, genus_cutoff // 2 + 1):
        gen = gen + ring.monomial(bernoulli(2 * g) / factorial(2 * g),
                                  eps=2 * g,
                                  factors=((1, 0, 1), (1, 2 * g, 1)))
    # cosh(eps dx / 2) applied to the exponential field, minus 2
    cosh = ring.monomial(Q(-2))
    m = 0
    while 2 * m <= genus_cutoff:
        cosh = cosh + ring.monomial(Q(1, 4 ** m * factorial(2 * m)),
                                    eps=2 * m, factors=((2, 2 * m, 1),))
        m += 1
    # exp of the smoothing series applied to the exponential field
    smooth = ring.zero()
    m = 0
    while 2 * m <= genus_cutoff:
        smooth = smooth + ring.monomial(Q(1, 4 ** m * factorial(2 * m + 1)),
                                        eps=2 * m, factors=((2, 2 * m, 1),))
        m += 1
    expo = ring.one()
    power = ring.one()
    for n in range(1, u_degree_cutoff + 1):
        power = power * smooth
        if power.is_zero():
            break
        expo = expo + power / factorial(n)
    q = ring.param("q")
    gen = gen + q * cosh * expo + q * u2
    if mode == "quantum":
        gen = gen + ring.monomial((Q(0), Q(-1, 12)), hbar=1) * u1
        for g in range(1, genus_cutoff // 2 + 1):
            b = bernoulli(2 * g) / factorial(2 * g)
            gen = gen + ring.monomial((Q(0), b), eps=2 * g - 2, hbar=1,
                                      factors=((1, 0, 1), (2, 2 * g, 1)))
    return HierarchySpec("toda", ring, gen)


# -- spin families -----------------------------------------------------------

def _antidiag_eta(n):
    return tuple(tuple(1 if a + b == n + 1 else 0 for b in range(1, n + 1))
                 for a in range(1, n + 1))


def spin3(mode="quantum"):
    ring = RingContext(n_vars=2, eta=_antidiag_eta(2), mode=mode)
    u1, u2 = ring.u(1), ring.u(2)
    e2 = ring.monomial(Q(1), eps=2)
    e4 = ring.monomial(Q(1), eps=4)
    gen = (u1 * u1 * u2 / 2 + u2 ** 4 / 36
           + e2 * (ring.u(1, 1) ** 2 * Q(-1, 12)
                   + u2 * ring.u(2, 1) ** 2 * Q(-1, 24))
           + e4 * ring.u(2, 2) ** 2 / 432)
    if mode == "quantum":
        gen = gen + ring.monomial((Q(0), Q(-1, 12)), hbar=1) * u1
    return HierarchySpec("spin3", ring, gen)


def spin4(mode="quantum"):
    ring = RingContext(n_vars=3, eta=_antidiag_eta(3), mode=mode)
    u1, u2, u3 = ring.u(1), ring.u(2), ring.u(3)
    e2 = ring.monomial(Q(1), eps=2)
    e4 = ring.monomial(Q(1), eps=4)
    e6 = ring.monomial(Q(1), eps=6)
    gen = (u1 * u2 ** 2 / 2 + u1 ** 2 * u3 / 2 + u2 ** 2 * u3 ** 2 / 8
           + u3 ** 5 / 320
           + e2 * (ring.u(1, 1) ** 2 * Q(-1, 8)
                   + u3 * ring.u(2, 1) ** 2 * Q(-1, 16)
                   + u3 * ring.u(1, 1) * ring.u(3, 1) * Q(-1, 32)
                   + u2 ** 2 * ring.u(3, 2) * Q(3, 64)
                   + u3 ** 3 * ring.u(3, 2) * Q(1, 192))
           + e4 * (ring.u(2, 2) ** 2 * Q(1, 160)
                   + ring.u(1, 2) * ring.u(3, 2) * Q(3, 640)
                   + u3 ** 2 * ring.u(3, 4) * Q(5, 4096))
           + e6 * ring.u(3, 3) ** 2 * Q(-1, 8192))
    if mode == "quantum":
        ih = ring.monomial((Q(0), Q(1)), hbar=1)
        gen = gen + ih * (ring.u(3, 1) ** 2 / 96 - u3 ** 2 / 96 - u1 / 8)
        gen = gen + ring.monomial((Q(0), Q(-1, 1280)), eps=2, hbar=1) * u3
    return HierarchySpec("spin4", ring, gen)


def spin5():
    """Four-field spin family; only the classical generator is bundled."""
    ring = RingContext(n_vars=4, eta=_antidiag_eta(4), mode="classical")

    def term(q, eps, *letters):
        merged = {}
        for alpha, k in letters:
            merged[(alpha, k)] = merged.get((alpha, k), 0) + 1
        return ring.monomial(q, eps=eps,
                             factors=tuple((a, k, p) for (a, k), p
                                           in sorted(merged.items())))

    gen = (
        term(Q(1, 2), 0, (1, 0), (1, 0), (4, 0))
        + term(Q(1), 0, (1, 0), (2, 0), (3, 0))
        + term(Q(1, 6), 0, (2, 0), (2, 0), (2, 0))
        + term(Q(1, 30), 0, (3, 0), (3, 0), (3, 0), (3, 0))
        + term(Q(1, 5), 0, (2, 0), (3, 0), (3, 0), (4, 0))
        + term(Q(1, 10), 0, (2, 0), (2, 0), (4, 0), (4, 0))
        + term(Q(1, 50), 0, (3, 0), (3, 0), (4, 0), (4, 0), (4, 0))
        + term(Q(1, 3750), 0, *([(4, 0)] * 6))
        + term(Q(1, 6), 2, (1, 0), (1, 2))
        + term(Q(3, 20), 2, (2, 0), (3, 0), (3, 2))
        + term(Q(1, 10), 2, (2, 0), (3, 1), (3, 1))
        + term(Q(1, 20), 2, (1, 2), (3, 0), (4, 0))
        + term(Q(1, 10), 2, (2, 0), (2, 2), (4, 0))
        + term(Q(1, 40), 2, (2, 1), (2, 1), (4, 0))
        + term(Q(1, 50), 2, (2, 0), (4, 0), (4, 1), (4, 1))
        + term(Q(1, 75), 2, (2, 0), (4, 0), (4, 0), (4, 2))
        + term(Q(1, 75), 2, (3, 0), (3, 0), (4, 0), (4, 2))
        + term(Q(1, 50), 2, (3, 0), (3, 2), (4, 0), (4, 0))
        + term(Q(1, 1200), 2, (4, 0), (4, 0), (4, 0), (4, 0), (4, 2))
        + term(Q(7, 600), 4, (2, 0), (2, 4))
        + term(Q(11, 900), 4, (1, 0), (3, 4))
        + term(Q(7, 1200), 4, (2, 0), (4, 0), (4, 4))
        + term(Q(17, 1200), 4, (2, 0), (4, 1), (4, 3))
        + term(Q(71, 7200), 4, (2, 0), (4, 2), (4, 2))
        + term(Q(31, 3600), 4, (3, 0), (3, 4), (4, 0))
        + term(Q(7, 450), 4, (3, 1), (3, 3), (4, 0))
        + term(Q(91, 7200), 4, (3, 2), (3, 2), (4, 0))
        + term(Q(13, 12000), 4, (4, 0), (4, 0), (4, 2), (4, 2))
        + term(Q(3, 4000), 4, (4, 0), (4, 1), (4, 1), (4, 2))
        + term(Q(53, 108000), 6, (3, 0), (3, 6))
        + term(Q(11, 18000), 6, (2, 0), (4, 6))
        + term(Q(1397, 6480000), 6, (4, 0), (4, 3), (4, 3))
        + term(Q(617, 1620000), 6, (4, 0), (4, 2), (4, 4))
        + term(Q(107, 10800000), 8, (4, 0), (4, 8))
    )
    return HierarchySpec("spin5", ring, gen)


# -- rank-1 family -----------------------------------------------------------

def rank1(mode="quantum", genus=3):
    """Scalar family with free deformation weights s1, s2, s3.

    Transcribed through genus 3.  The quantum generator's coefficients are
    polynomial in the weights; the classical one keeps only the eps rows.
    """
    if not 0 <= genus <= 3:
        raise ValueError("the family is bundled through genus 3")
    ring = RingContext(params=("s1", "s2", "s3"), mode=mode,
                       window=TruncationWindow(genus_cutoff=2 * genus))
    u = ring.u

    def mono(re, im, eps, hbar, fac, params=()):
        if hbar and ring.mode == "classical":
            return ring.zero()
        return ring.monomial((re, im), eps=eps, hbar=hbar, factors=fac,
                             params=params)

    u1sq = ((1, 1, 2),)
    u2sq = ((1, 2, 2),)
    u2cb = ((1, 2, 3),)
    u3sq = ((1, 3, 2),)
    gen = u() ** 3 / 6
    if genus >= 1:
        gen = gen + mono(Q(-1, 24), Q(0), 2, 0, u1sq)
        gen = gen + mono(Q(0), Q(-1, 2), 0, 1, u1sq, (("s1", 1),))
        gen = gen + mono(Q(0), Q(-1, 24), 0, 1, ((1, 0, 1),))
    if genus >= 2:
        gen = gen + mono(Q(-1, 120), Q(0), 4, 0, u2sq, (("s1", 1),))
        gen = gen + mono(Q(0), Q(-1, 10), 2, 1, u2sq, (("s1", 2),))
        # -(24 s1^3 + 5 s2)/60 (i hbar)^2 = +(24 s1^3 + 5 s2)/60 hbar^2
        gen = gen + mono(Q(24, 60), Q(0), 0, 2, u2sq, (("s1", 3),))
        gen = gen + mono(Q(5, 60), Q(0), 0, 2, u2sq, (("s2", 1),))
    if genus >= 3:
        gen = gen + mono(Q(-1, 360), Q(0), 6, 0, u2cb, (("s1", 3),))
        gen = gen + mono(Q(-1, 1728), Q(0), 6, 0, u2cb, (("s2", 1),))
        gen = gen + mono(Q(0), Q(-24, 720), 4, 1, u2cb, (("s1", 4),))
        gen = gen + mono(Q(0), Q(-5, 720), 4, 1, u2cb, (("s1", 1), ("s2", 1)))
        gen = gen + mono(Q(4608, 28800), Q(0), 2, 2, u2cb, (("s1", 5),))
        gen = gen + mono(Q(2400, 28800), Q(0), 2, 2, u2cb,
                         (("s1", 2), ("s2", 1)))
        gen = gen + mono(Q(35, 28800), Q(0), 2, 2, u2cb, (("s3", 1),))
        # -(i hbar)^3 = +i hbar^3
        gen = gen + mono(Q(0), Q(2304, 7200), 0, 3, u2cb, (("s1", 6),))
        gen = gen + mono(Q(0), Q(2400, 7200), 0, 3, u2cb,
                         (("s1", 3), ("s2", 1)))
        gen = gen + mono(Q(0), Q(105, 7200), 0, 3, u2cb,
                         (("s1", 1), ("s3", 1)))
        gen = gen + mono(Q(0), Q(-500, 7200), 0, 3, u2cb, (("s2", 2),))
        gen = gen + mono(Q(-1, 420), Q(0), 6, 0, u3sq, (("s1", 2),))
        gen = gen + mono(Q(0), Q(-96, 2520), 4, 1, u3sq, (("s1", 3),))
        gen = gen + mono(Q(0), Q(-5, 2520), 4, 1, u3sq, (("s2", 1),))
        gen = gen + mono(Q(24, 105), Q(0), 2, 2, u3sq, (("s1", 4),))
        gen = gen + mono(Q(5, 105), Q(0), 2, 2, u3sq, (("s1", 1), ("s2", 1)))
        gen = gen + mono(Q(0), Q(4608, 8400), 0, 3, u3sq, (("s1", 5),))
        gen = gen + mono(Q(0), Q(2400, 8400), 0, 3, u3sq,
                         (("s1", 2), ("s2", 1)))
        gen = gen + mono(Q(0), Q(35, 8400), 0, 3, u3sq, (("s3", 1),))
    return HierarchySpec("rank1", ring, gen)


# -- catalog -----------------------------------------------------------------

PRESETS = {
    "kdv": kdv,
    "ilw": ilw,
    "toda": toda,
    "spin3": spin3,
    "spin4": spin4,
    "spin5": spin5,
    "rank1": rank1,
}


def build(name, **kwargs):
    """Instantiate a preset by catalog name."""
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; "
                       f"choose from {sorted(PRESETS)}")
    return PRESETS[name](**kwargs)
