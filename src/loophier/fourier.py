"""Independent mode-space oracle for brackets.

A field variable expands in finitely many Fourier modes,

    u^alpha_j  ->  sum_{|k| <= K} (i k)^j p^alpha_k e^{i k x},

making densities polynomials in the p^alpha_k.  The x-integral keeps the
frequency-zero part.  Both brackets are Wick contractions on F (x) G, kept
as a dict of term pairs.  One contraction P pairs a factor p^a_k of the
left term with a factor p^b_{-k} of the right, with weight k eta^{ab}
times the two derivatives' powers, and mu multiplies each pair back:

    {F, G}  = i mu(P(F (x) G)),          P over every k != 0,
    F * G   = mu(exp(i hbar P)(F (x) G))
            = sum_n (i hbar)^n / n! mu(P^n(F (x) G)),   P over k > 0.

P^n applies n contractions one after another.  A pattern that contracts
the letter pair j (a p^a_k of F with a p^b_{-k} of G) c_j times, with
n = sum_j c_j, is reached once per ordering of its contractions, n! /
prod_j c_j! times, so the 1/n! leaves it the weight 1/prod_j c_j!, the
symmetry factor of its Wick term, with no pattern enumerated.  mu
clips each product at the ring's genus and u-degree cutoffs, as the
local brackets clip theirs, so on a windowed ring the oracle is the full
one truncated at the window.

This file shares nothing with the differential-polynomial bracket
mechanics beyond the ring context it is handed: it imports only the
coefficient arithmetic and the errors, and counts its contractions
itself, so agreement between the two is meaningful.
"""

from .coeffs import (CONE, I_POW, accumulate, as_coeff, cneg, cmul, cscale,
                     is_czero)
from .errors import ContextMismatch, ModeMismatch

__all__ = ["FourierPoly", "to_fourier", "poisson_fourier", "star_product",
           "star_commutator_fourier"]


def merge_params(a, b):
    """The product of two parameter monomials, sorted (name, exp) tuples."""
    if not a:
        return b
    if not b:
        return a
    d = dict(a)
    for name, e in b:
        d[name] = d.get(name, 0) + e
    return tuple(sorted(d.items()))


def _times(a, b, hbar=0):
    """The key of the product of the terms at keys a and b, times hbar^hbar."""
    (e1, h1, p1, f1), (e2, h2, p2, f2) = a, b
    fac = []
    for x in sorted(f1 + f2):
        if fac and fac[-1][:2] == x[:2]:
            x = x[:2] + (fac.pop()[2] + x[2],)
        fac.append(x)
    return (e1 + e2, h1 + h2 + hbar, merge_params(p1, p2), tuple(fac))


class FourierPoly:
    """Polynomial in mode variables p^alpha_k, |k| <= n_modes.

    Term keys are (eps, hbar, params, pfactors) with pfactors a sorted tuple
    of (alpha, k, pow); the frequency of a term is sum k*pow.
    """

    __slots__ = ("ring", "n_modes", "terms")

    def __init__(self, ring, n_modes, terms=None):
        self.ring = ring
        self.n_modes = n_modes
        self.terms = terms if terms is not None else {}

    def check(self, other):
        self.ring.check(other.ring)
        if self.n_modes != other.n_modes:
            raise ContextMismatch("mode truncations differ")

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, FourierPoly):
            return NotImplemented
        self.check(other)
        return self.terms == other.terms

    __hash__ = None

    def __add__(self, other):
        self.check(other)
        out = dict(self.terms)
        for key, v in other.terms.items():
            accumulate(out, key, v)
        return FourierPoly(self.ring, self.n_modes, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return FourierPoly(self.ring, self.n_modes,
                           {k: cneg(v) for k, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, FourierPoly):
            return self.scale(other)
        self.check(other)
        out = {}
        for a, va in self.terms.items():
            for b, vb in other.terms.items():
                accumulate(out, _times(a, b), va, vb)
        return FourierPoly(self.ring, self.n_modes, out)

    def scale(self, c):
        coeff = as_coeff(c)
        if is_czero(coeff):
            return FourierPoly(self.ring, self.n_modes, {})
        return FourierPoly(self.ring, self.n_modes,
                           {k: cmul(v, coeff) for k, v in self.terms.items()})

    def project_zero(self):
        """Frequency-zero part: the image of the x-integral."""
        out = {k: v for k, v in self.terms.items()
               if sum(f[1] * f[2] for f in k[3]) == 0}
        return FourierPoly(self.ring, self.n_modes, out)

    def low_band(self):
        """Terms whose total absolute frequency stays within n_modes.

        Inside this band a mode truncation at n_modes is exact: every
        internal contraction frequency of a bracket contributing to such a
        term is itself at most n_modes, so no truncated mode is missed.
        """
        out = {k: v for k, v in self.terms.items()
               if sum(abs(f[1]) * f[2] for f in k[3]) <= self.n_modes}
        return FourierPoly(self.ring, self.n_modes, out)


def to_fourier(f, n_modes):
    """Expand a differential polynomial over modes |k| <= n_modes."""
    ring = f.ring
    out = FourierPoly(ring, n_modes)
    var_cache = {}

    def var(al, j):
        if (al, j) not in var_cache:
            terms = {}
            for k in range(-n_modes, n_modes + 1):
                coeff = cscale(I_POW[j % 4], k ** j)  # (i k)^j
                if is_czero(coeff):
                    continue
                terms[(0, 0, (), ((al, k, 1),))] = coeff
            var_cache[(al, j)] = FourierPoly(ring, n_modes, terms)
        return var_cache[(al, j)]

    for (e, h, p, fac), v in f.monomials():
        acc = FourierPoly(ring, n_modes, {(e, h, p, ()): v})
        for al, j, pw in fac:
            base = var(al, j)
            for _ in range(pw):
                acc = acc * base
        out = out + acc
    return out


def _pairs(F, G):
    """F (x) G as {(a, b): F_a G_b} over the term keys of F and G."""
    return {(a, b): cmul(va, vb)
            for a, va in F.terms.items() for b, vb in G.terms.items()}


def _lowered(key, i):
    """key with the power of its i-th mode factor lowered by one."""
    fac = key[3]
    al, k, pw = fac[i]
    mid = ((al, k, pw - 1),) if pw > 1 else ()
    return key[:3] + (fac[:i] + mid + fac[i + 1:],)


def _contract(ring, pairs, modes):
    """One contraction P of the pairs: each factor p^a_k of a left key, k in
    modes, against each factor p^b_{-k} of its right key, with weight
    k eta^{ab} pow_a pow_b."""
    out = {}
    for (a, b), v in pairs.items():
        for i, (al, k, pa) in enumerate(a[3]):
            if k not in modes:
                continue
            da = _lowered(a, i)
            for j, (be, kb, pb) in enumerate(b[3]):
                if kb != -k:
                    continue
                eta = ring.eta_inv_pair(al, be)
                if not is_czero(eta):
                    accumulate(out, (da, _lowered(b, j)), v,
                               cscale(eta, k * pa * pb))
    return out


def _mu_into(ring, out, pairs, coeff, hbar=0):
    """out += coeff hbar^hbar mu(pairs), mu multiplying each pair, clipped
    at ring's window: genus eps + 2 hbar, u-degree the mode factors."""
    gc, uc = ring.window.genus_cutoff, ring.window.u_degree_cutoff
    for (a, b), v in pairs.items():
        key = _times(a, b, hbar)
        if ((gc is None or key[0] + 2 * key[1] <= gc)
                and (uc is None or sum(f[2] for f in key[3]) <= uc)):
            accumulate(out, key, v, coeff)
    return out


def poisson_fourier(F, H):
    """sum_k dF/dp^a_k (i k eta^{ab}) dH/dp^b_{-k}: i mu(P(F (x) H))."""
    F.check(H)
    modes = {k for k in range(-F.n_modes, F.n_modes + 1) if k}
    pairs = _contract(F.ring, _pairs(F, H), modes)
    return FourierPoly(F.ring, F.n_modes,
                       _mu_into(F.ring, {}, pairs, I_POW[1]))


def star_product(F, G):
    """Deformed product mu(exp(i hbar P)(F (x) G)), P contracting positive
    F-modes with negative G-modes, clipped at the ring's window; the
    hbar^n terms stop at n = genus cutoff // 2, hbar carrying genus 2."""
    F.check(G)
    ring = F.ring
    if ring.mode != "quantum":
        raise ModeMismatch("star product needs a quantum ring")
    gc = ring.window.genus_cutoff
    modes = range(1, F.n_modes + 1)
    pairs = _pairs(F, G)
    out = {}
    n, coeff = 0, CONE
    while pairs and (gc is None or n <= gc // 2):
        _mu_into(ring, out, pairs, coeff, n)
        n += 1
        coeff = cscale(cmul(coeff, I_POW[1]), 1, n)
        pairs = _contract(ring, pairs, modes)
    return FourierPoly(ring, F.n_modes, out)


def star_commutator_fourier(F, H):
    """F * H - H * F in the deformed product."""
    return star_product(F, H) - star_product(H, F)
