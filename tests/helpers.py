"""Shared helpers for the test suite."""

from loophier.rat import Q
from loophier.coeffs import accumulate, cscale


def rand_q(rng, lo=-6, hi=6, den=4):
    n = rng.randint(lo, hi)
    d = rng.randint(1, den)
    return Q(n, d)


def rand_poly(rng, ring, n_terms=4, max_k=3, max_pow=2, max_eps=2,
              max_hbar=1, allow_i=True, allow_params=True, max_udeg=None):
    """Random polynomial in the given ring, possibly zero."""
    out = ring.zero()
    for _ in range(rng.randint(0, n_terms)):
        nfac = rng.randint(0, 3)
        fac = {}
        for _ in range(nfac):
            al = rng.randint(1, ring.n_vars)
            k = rng.randint(0, max_k)
            pw = rng.randint(1, max_pow)
            if max_udeg is not None:
                room = max_udeg - sum(fac.values())
                if room <= 0:
                    break
                pw = min(pw, room)
            fac[(al, k)] = fac.get((al, k), 0) + pw
        eps = rng.randint(0, max_eps)
        hbar = rng.randint(0, max_hbar) if ring.mode == "quantum" else 0
        params = {}
        if allow_params and ring.params and rng.random() < 0.4:
            name = rng.choice(ring.params)
            params[name] = rng.randint(1, 2)
        re = rand_q(rng)
        im = rand_q(rng) if allow_i and rng.random() < 0.4 else Q(0)
        if not re and not im:
            continue
        out = out + ring.monomial(
            (re, im), eps=eps, hbar=hbar,
            factors=tuple((a, k, p) for (a, k), p in sorted(fac.items())),
            params=tuple(sorted(params.items())))
    return out


def poly_strategy(ring, max_terms=5, max_k=3, max_pow=3, max_eps=2):
    """Hypothesis strategy for polynomials of ring.

    A letter u^alpha_k is often drawn together with u^alpha_{k+1}, and
    powers go above 1, so factor tuples hold adjacent derivative orders of
    one variable.
    """
    from hypothesis import strategies as st

    rational = st.builds(Q, st.integers(-6, 6), st.integers(1, 4))
    imag = st.one_of(st.just(Q(0)), rational)
    letter = st.tuples(st.integers(1, ring.n_vars), st.integers(0, max_k),
                       st.integers(1, max_pow), st.integers(0, max_pow))

    @st.composite
    def monomial(draw):
        fac = {}
        for al, k, pw, pw_next in draw(st.lists(letter, max_size=3)):
            fac[(al, k)] = fac.get((al, k), 0) + pw
            if pw_next:
                fac[(al, k + 1)] = fac.get((al, k + 1), 0) + pw_next
        hbar = draw(st.integers(0, 1)) if ring.mode == "quantum" else 0
        params = ()
        if ring.params and draw(st.booleans()):
            params = ((draw(st.sampled_from(ring.params)),
                       draw(st.integers(1, 2))),)
        return ring.monomial(
            (draw(rational), draw(imag)), eps=draw(st.integers(0, max_eps)),
            hbar=hbar,
            factors=tuple((a, k, p) for (a, k), p in sorted(fac.items())),
            params=params)

    return st.lists(monomial(), max_size=max_terms).map(
        lambda ms: sum(ms, ring.zero()))


# ---------------------------------------------------------------------------
# decoded term keys (eps, hbar, params, factors), as DiffPoly.monomials()
# yields them, with factors a sorted tuple of (alpha, k, pow)


def key_genus(key):
    return key[0] + 2 * key[1]


def key_udeg(key):
    return sum(f[2] for f in key[3])


def _with_powers(powers):
    return tuple((al, k, p) for (al, k), p in sorted(powers.items()) if p)


def tuple_dx(terms):
    """Reference dx on a dict of decoded keys: one power of each letter
    u^alpha_k moves to u^alpha_{k+1}, weighted by its power."""
    out = {}
    for (e, h, p, fac), v in terms.items():
        for al, k, pw in fac:
            powers = {(a, kk): q for a, kk, q in fac}
            powers[(al, k)] -= 1
            powers[(al, k + 1)] = powers.get((al, k + 1), 0) + 1
            accumulate(out, (e, h, p, _with_powers(powers)), cscale(v, pw))
    return out


def tuple_partial(terms, alpha, k):
    """Reference partial derivative by u^alpha_k on a dict of decoded
    keys."""
    out = {}
    for (e, h, p, fac), v in terms.items():
        powers = {(a, kk): q for a, kk, q in fac}
        pw = powers.get((alpha, k), 0)
        if pw:
            powers[(alpha, k)] -= 1
            accumulate(out, (e, h, p, _with_powers(powers)), cscale(v, pw))
    return out
