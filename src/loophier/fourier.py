"""Independent mode-space oracle for brackets.

A field variable expands in finitely many Fourier modes,

    u^alpha_j  ->  sum_{|k| <= K} (i k)^j p^alpha_k e^{i k x},

making densities polynomials in the p^alpha_k.  The x-integral keeps the
frequency-zero part.  The classical bracket acts mode-wise through
{p_k, p_j} = i k eta^ delta_{k+j,0}; the quantum product contracts positive
against negative modes with one factor of i hbar k eta^ per contraction.
This file shares nothing with the differential-polynomial bracket mechanics
beyond the ring context it is handed: it imports only the coefficient
arithmetic and the errors, and enumerates its contractions itself, so
agreement between the two is meaningful.
"""

from itertools import product
from math import factorial

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


def _ik_pow(k, j):
    """(i k)^j as a coefficient."""
    return cscale(I_POW[j % 4], k ** j)


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
        for (e1, h1, p1, f1), v1 in self.terms.items():
            for (e2, h2, p2, f2), v2 in other.terms.items():
                fac = {}
                for al, k, pw in f1 + f2:
                    fac[(al, k)] = fac.get((al, k), 0) + pw
                key = (e1 + e2, h1 + h2, merge_params(p1, p2),
                       tuple((al, k, pw) for (al, k), pw in sorted(fac.items())))
                accumulate(out, key, cmul(v1, v2))
        return FourierPoly(self.ring, self.n_modes, out)

    def scale(self, c):
        coeff = as_coeff(c)
        if is_czero(coeff):
            return FourierPoly(self.ring, self.n_modes, {})
        return FourierPoly(self.ring, self.n_modes,
                           {k: cmul(v, coeff) for k, v in self.terms.items()})

    def mul_hbar(self, coeff, n=1):
        """Multiply by the coefficient coeff times hbar^n."""
        if self.ring.mode != "quantum":
            raise ModeMismatch("hbar in a classical ring")
        out = {}
        for (e, h, p, f), v in self.terms.items():
            w = cmul(v, coeff)
            if not is_czero(w):
                out[(e, h + n, p, f)] = w
        return FourierPoly(self.ring, self.n_modes, out)

    def partial_p(self, alpha, k):
        out = {}
        for (e, h, p, fac), v in self.terms.items():
            for i, (al, kk, pw) in enumerate(fac):
                if al == alpha and kk == k:
                    nf = fac[:i] + fac[i + 1:] if pw == 1 else \
                        fac[:i] + ((al, kk, pw - 1),) + fac[i + 1:]
                    accumulate(out, (e, h, p, nf), cscale(v, pw))
                    break
        return FourierPoly(self.ring, self.n_modes, out)

    def support_modes(self):
        out = set()
        for key in self.terms:
            for al, k, _ in key[3]:
                out.add((al, k))
        return out

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
                coeff = _ik_pow(k, j)
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


def poisson_fourier(F, H):
    """sum_k dF/dp^a_k (i k eta^{ab}) dH/dp^b_{-k}."""
    F.check(H)
    ring = F.ring
    out = FourierPoly(ring, F.n_modes)
    h_modes = H.support_modes()
    for al, k in sorted(F.support_modes()):
        if k == 0:
            continue
        dF = F.partial_p(al, k)
        if dF.is_zero():
            continue
        for be in range(1, ring.n_vars + 1):
            if (be, -k) not in h_modes:
                continue
            eta = ring.eta_inv_pair(al, be)
            if is_czero(eta):
                continue
            dH = H.partial_p(be, -k)
            if dH.is_zero():
                continue
            out = out + (dF * dH).scale(cmul(eta, _ik_pow(k, 1)))
    return out


def _p_multiset_derivs(F, n_max, sign):
    """Iterated mode derivatives keyed by letter multisets.

    sign > 0 walks letters with positive k, sign < 0 with negative k.
    """
    levels = [{(): F}]
    for _ in range(n_max):
        nxt = {}
        for ms, p in levels[-1].items():
            floor = ms[-1] if ms else None
            for al, k in sorted(p.support_modes()):
                if k * sign <= 0:
                    continue
                letter = (al, k)
                if floor is not None and letter < floor:
                    continue
                d = p.partial_p(al, k)
                if not d.is_zero():
                    nxt[ms + (letter,)] = d
        if not nxt:
            break
        levels.append(nxt)
    return levels


def _pair_tables(fmults, gmults, cells):
    """Every way to pair up the letters through the given cells.

    Yields {(i, j): count} over the cells (i, j), with row sums fmults and
    column sums gmults.
    """
    for counts in product(*(range(min(fmults[i], gmults[j]) + 1)
                            for i, j in cells)):
        rows, cols = [0] * len(fmults), [0] * len(gmults)
        for (i, j), x in zip(cells, counts):
            rows[i] += x
            cols[j] += x
        if rows == list(fmults) and cols == list(gmults):
            yield {c: x for c, x in zip(cells, counts) if x}


def _mode_pairings(fletters, fmults, gletters, gmults, ring):
    """Pair F-letters (alpha, k) with G-letters (beta, -k), mode-exactly.

    Yields (eta_product, denom, count_pairs) where count_pairs maps
    (i, j) -> multiplicity; denom collects the symmetry factorials.
    """
    cells = [(i, j) for i, (al, k) in enumerate(fletters)
             for j, (be, kg) in enumerate(gletters)
             if kg == -k and not is_czero(ring.eta_inv_pair(al, be))]
    for tab in _pair_tables(fmults, gmults, cells):
        eta = CONE
        denom = 1
        for (i, j), cnt in tab.items():
            e = ring.eta_inv_pair(fletters[i][0], gletters[j][0])
            for _ in range(cnt):
                eta = cmul(eta, e)
            denom *= factorial(cnt)
        yield eta, denom, tab


def star_product(F, G):
    """Deformed product: contractions of positive F-modes with negative
    G-modes, one factor i hbar k eta^ each, symmetrized."""
    F.check(G)
    ring = F.ring
    if ring.mode != "quantum":
        raise ModeMismatch("star product needs a quantum ring")
    n_max = max((sum(f[2] for f in key[3]) for key in F.terms), default=0)
    gc = ring.window.genus_cutoff
    if gc is not None:
        n_max = min(n_max, gc // 2)
    f_levels = _p_multiset_derivs(F, n_max, +1)
    total = F * G
    for n in range(1, len(f_levels)):
        g_levels = _p_multiset_derivs(G, n, -1)
        if len(g_levels) <= n:
            break
        for mf, dF in f_levels[n].items():
            fletters = sorted(set(mf))
            fmults = tuple(mf.count(x) for x in fletters)
            for mg, dG in g_levels[n].items():
                if sorted(k for _, k in mf) != sorted(-k for _, k in mg):
                    continue
                gletters = sorted(set(mg))
                gmults = tuple(mg.count(x) for x in gletters)
                for eta, denom, tab in _mode_pairings(
                        fletters, fmults, gletters, gmults, ring):
                    kprod = 1
                    for (i, _), cnt in tab.items():
                        kprod *= fletters[i][1] ** cnt
                    scalar = cscale(eta, kprod, denom)
                    scalar = cmul(scalar, I_POW[n % 4])
                    if is_czero(scalar):
                        continue
                    total = total + (dF * dG).mul_hbar(scalar, n)
    return total


def star_commutator_fourier(F, H):
    """F * H - H * F in the deformed product."""
    return star_product(F, H) - star_product(H, F)
