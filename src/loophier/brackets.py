"""Poisson brackets and their quantum deformation.

The classical bracket of a density with a local functional is

    {f, G} = sum_{mu,s} df/du^mu_s dx^s( K^{mu nu} dG/du^nu )

for a Hamiltonian operator K; the standard K has entries eta^{mu nu} dx
with eta^ upper the inverse pairing matrix.

The quantum bracket replaces K by a full star-product commutator: the order
n >= 1 piece contracts n-th multiset derivatives of both arguments through
eta.  Each distinct ordering of the second multiset's letters (beta_i, r_i)
is paired slot by slot with the sorted letters (alpha_i, s_i) of the first;
the pairing weighs prod eta^{alpha_i beta_i}, divided by the factorials of
the first multiset's multiplicities, and carries the kernel row

    sum_j C_j^{a_1..a_n} dx^j,   a_i = s_i + r_i + 1,

where the C row is read off the expansion of a product of polylogarithms
Li_{-d}(z) = sum_{k>=1} k^d z^k in the basis Li_{-j}(z).

Both brackets form their products with ring.mul_into, each into one term
dict.  The classical bracket multiplies each df/du^mu_s by dx^s of the
flow; the quantum one sums, for each first multiset mf, the kernels
applied to every second operand's derivative into one dict, and then
multiplies it by the derivative of mf once.  Under a genus cutoff that sum
keeps only the terms that can reach the window beside the least genus of
that derivative.

The same few functionals enter many commutators, so the work that depends
on one operand or on the ring alone is memoised: each operand's multiset
derivatives, and the dx^j chains of each derivative, live on the operand
(DiffPoly._tower) as long as it does, and each kernel row and each summed
(mf, mg) kernel lives in a process-wide dict (_ROW_CACHE, _KERNELS).  This
is sound because a DiffPoly is never changed after it is built, and
compatible rings have equal windows.
"""

from itertools import groupby, permutations
from math import factorial, inf, prod

from .rat import Q
from .coeffs import CONE, I_POW, accumulate, cmul, cscale, is_czero
from .errors import ModeMismatch
from .ring import (MASK, UDEG_AT, DiffPoly, dx, dx_pow, emin, mul_claim,
                   mul_into, partial, product_claim)
from .functionals import LocalFunctional

__all__ = ["DiffOperator", "HamiltonianOperator", "polylog_product_coeffs",
           "contraction_row", "poisson_local", "poisson",
           "star_commutator_local", "star_commutator"]


class DiffOperator:
    """Scalar differential operator sum_j a_j(u) dx^j with poly coefficients."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs=None):
        self.ring = ring
        cleaned = {}
        if coeffs:
            for j, a in coeffs.items():
                if j < 0:
                    raise ValueError("negative power of dx")
                if not a.is_zero():
                    ring.check(a.ring)
                    cleaned[j] = a
        self.coeffs = cleaned

    @classmethod
    def dx_power(cls, ring, j, coeff):
        return cls(ring, {j: coeff})

    def is_zero(self):
        return not self.coeffs

    def order(self):
        return max(self.coeffs) if self.coeffs else None

    def apply(self, p):
        out = self.ring.zero()
        jmax = self.order()
        if jmax is None:
            return out
        pow_cache = p
        last = 0
        for j in sorted(self.coeffs):
            pow_cache = dx_pow(pow_cache, j - last)
            last = j
            out = out + self.coeffs[j] * pow_cache
        return out

    def compose(self, other):
        """Operator product self . other using the Leibniz rule."""
        self.ring.check(other.ring)
        out = {}
        for i, a in self.coeffs.items():
            binom = 1
            for m in range(i + 1):
                if m:
                    binom = binom * (i - m + 1) // m
                for j, b in other.coeffs.items():
                    c = a * dx_pow(b, m) * binom
                    k = i + j - m
                    out[k] = out.get(k, self.ring.zero()) + c
        return DiffOperator(self.ring, out)

    def __add__(self, other):
        self.ring.check(other.ring)
        out = dict(self.coeffs)
        for j, b in other.coeffs.items():
            out[j] = out.get(j, self.ring.zero()) + b
        return DiffOperator(self.ring, out)

    def __eq__(self, other):
        if not isinstance(other, DiffOperator):
            return NotImplemented
        return self.coeffs == other.coeffs

    __hash__ = None


class HamiltonianOperator:
    """Matrix of differential operators acting on variational gradients."""

    __slots__ = ("ring", "entries")

    def __init__(self, ring, entries=None):
        self.ring = ring
        self.entries = {}
        if entries:
            for (mu, nu), op in entries.items():
                if not 1 <= mu <= ring.n_vars or not 1 <= nu <= ring.n_vars:
                    raise ValueError("operator index out of range")
                if not op.is_zero():
                    self.entries[(mu, nu)] = op

    @classmethod
    def standard(cls, ring):
        """eta^{mu nu} dx with upper indices from the inverse pairing."""
        entries = {}
        for mu in range(1, ring.n_vars + 1):
            for nu in range(1, ring.n_vars + 1):
                pair = ring.eta_inv_pair(mu, nu)
                if is_czero(pair):
                    continue
                entries[(mu, nu)] = DiffOperator.dx_power(
                    ring, 1, ring.const(pair))
        return cls(ring, entries)

    def entry(self, mu, nu):
        return self.entries.get((mu, nu), DiffOperator(self.ring))

    def apply(self, vec):
        """Matrix action on a covector {nu: poly} giving {mu: poly}."""
        out = {}
        for (mu, nu), op in self.entries.items():
            p = vec.get(nu)
            if p is None or p.is_zero():
                continue
            r = op.apply(p)
            out[mu] = out.get(mu, self.ring.zero()) + r
        return out

    def compose(self, other):
        out = {}
        for (mu, s), a in self.entries.items():
            for (t, nu), b in other.entries.items():
                if s != t:
                    continue
                c = a.compose(b)
                key = (mu, nu)
                out[key] = out.get(key, DiffOperator(self.ring)) + c
        return HamiltonianOperator(self.ring, out)

    def __eq__(self, other):
        if not isinstance(other, HamiltonianOperator):
            return NotImplemented
        return self.entries == other.entries

    __hash__ = None


# ---------------------------------------------------------------------------
# classical bracket


def poisson_local(f, g, operator=None):
    """Bracket of a density f with a local functional g (class-invariant).

    The sum over mu and s of df/du^mu_s dx^s(flow_mu), flow = K grad g, is
    formed in one term dict by ring.mul_into.  Each pair claims what
    ring.mul_claim gives df * dx^s(flow_mu), as DiffPoly.__mul__ does, and
    the result claims the least of them, as the sum of those products
    would.
    """
    ring = f.ring
    if isinstance(g, DiffPoly):
        g = LocalFunctional(g)
    ring.check(g.ring)
    K = operator if operator is not None else HamiltonianOperator.standard(ring)
    ring.check(K.ring)
    gc = ring.window.genus_cutoff
    uc = ring.window.u_degree_cutoff
    grad = {nu: g.var_deriv(nu) for nu in range(1, ring.n_vars + 1)}
    flow = K.apply(grad)
    support = f.support_vars()
    out = {}
    claims = []
    for mu, w in flow.items():
        if w.is_zero():
            continue
        smax = max((s for al, s in support if al == mu), default=-1)
        cur = w
        for s in range(smax + 1):
            if s:
                cur = dx(cur)
            df = partial(f, mu, s)
            if df.is_zero():
                continue
            dropped = mul_into(out, df.terms, cur.terms, gc, uc)
            claims.append(mul_claim(df, cur, uc if dropped else None))
    return DiffPoly(ring, out, emin(*claims))


def poisson(fbar, gbar, operator=None):
    """Bracket of two local functionals."""
    if isinstance(fbar, DiffPoly):
        fbar = LocalFunctional(fbar)
    return LocalFunctional(poisson_local(fbar.density, gbar, operator))


# ---------------------------------------------------------------------------
# contraction kernel


def _interpolate(values):
    """Exact coefficients of the polynomial through (k, values[k]), k = 0..

    Newton's forward form p(k) = sum_j D^j p(0) binom(k, j): the first
    entry of each row of the difference table is D^j p(0), and the falling
    factorial k (k-1) .. (k-j+1) is expanded into monomials as j grows.
    With m values each 1/j! is ((m-1)!/j!) / (m-1)!, so integer values are
    summed in ints and each coefficient is divided once, at the end.
    """
    den = factorial(len(values) - 1)
    weight = den  # (m-1)! / j!
    sums = [0] * len(values)
    falling = [1]
    diffs = list(values)
    for j in range(len(values)):
        lead = diffs[0] * weight
        if lead:
            for i, f in enumerate(falling):
                sums[i] += lead * f
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        falling = [lo - j * hi for lo, hi in zip([0] + falling, falling + [0])]
        weight //= j + 1
    return [Q(s, den) for s in sums]


def polylog_product_coeffs(ds):
    """Expansion of prod_i Li_{-d_i}(z) as sum_j c_j Li_{-j}(z).

    Returns {j: c_j} for j = 1 .. sum(ds) + len(ds) - 1.  The coefficient
    sequence of the product is a polynomial in the frequency k with zero
    constant term; its monomial coefficients are exactly the c_j.
    """
    ds = tuple(ds)
    n = len(ds)
    m = sum(ds) + n - 1
    conv = None
    for d in ds:
        if conv is None:
            conv = [k ** d if k >= 1 else 0 for k in range(m + 1)]
        else:
            nxt = [0] * (m + 1)
            for k in range(2, m + 1):
                s = 0
                for a in range(1, k):
                    if conv[a]:
                        s += conv[a] * (k - a) ** d
                nxt[k] = s
            conv = nxt
    coeffs = _interpolate(conv)
    assert coeffs[0] == 0, "product of polylogs grew a constant term"
    return {j: coeffs[j] for j in range(1, m + 1) if coeffs[j]}


_ROW_CACHE = {}


def contraction_row(a_sorted):
    """Signed, parity-filtered kernel row for contraction weights a_i.

    C_j = (-1)^((n-1+sum a - j)/2) c_j when j has the parity of n-1+sum a,
    zero otherwise, with c_j from polylog_product_coeffs.
    """
    row = _ROW_CACHE.get(a_sorted)
    if row is None:
        n = len(a_sorted)
        tot = n - 1 + sum(a_sorted)
        raw = polylog_product_coeffs(a_sorted)
        row = {}
        for j, c in raw.items():
            if (tot - j) % 2 == 0:
                s = -c if ((tot - j) // 2) % 2 else c
                row[j] = s
        _ROW_CACHE[a_sorted] = row
    return row


# ---------------------------------------------------------------------------
# quantum bracket


def _multiset_derivs(f, n_max):
    """f's nonzero iterated partials by letter multisets through order n_max.

    Returns f's tower, a list levels[n] = [(multiset, poly, support,
    nonconstant support, chains)], the multisets sorted tuples of letters
    (alpha, k), the supports those of _support and chains the memo of
    star_commutator_local's dx^j chains; levels[0] holds f alone, without
    supports or chains.  The tower lives in f's _tower slot and grows there, one
    order at a time, up to n_max or up to the first order with no partial,
    which ends it as an empty level.
    """
    levels = getattr(f, "_tower", None)
    if levels is None:
        levels = f._tower = [[((), f, None, None, None)]]
    while len(levels) <= n_max and levels[-1]:
        nxt = []
        for ms, p, _, _, _ in levels[-1]:
            floor = ms[-1] if ms else None
            for al, k in sorted(p.support_vars()):
                letter = (al, k)
                if floor is not None and letter < floor:
                    continue
                d = partial(p, al, k)
                nxt.append((ms + (letter,), d, _support(d),
                            _support(d, nonconstant=True), {}))
        levels.append(nxt)
    return levels


# the kernel of each (mf, mg) pair, per inverse pairing ring.eta_inv
_KERNELS = {}


def _kernel(ring, mf, mg):
    """The operator sum_j c_j dx^j of one (mf, mg) pair, as a tuple of
    (j, c_j) pairs, () when it is zero.

    A contraction pairs the n letters (alpha_i, s_i) of mf one to one with
    the n letters (beta_i, r_i) of mg; it weighs prod eta^{alpha_i beta_i}
    and carries the kernel row of the sorted a_i = s_i + r_i + 1.  The
    sorted mf is paired slot by slot with each distinct ordering of mg,
    and an ordering with a zero eta factor is dropped.  A pattern that
    pairs letter i of mf with letter j of mg T_ij times arises from
    prod m_i! / prod T_ij! orderings, m_i the multiplicities of mf, so
    dividing the sum by prod m_i! gives each pattern the weight
    1 / prod T_ij! of its symmetry.  The weights are summed per sorted a,
    times the sign (-1)^(sum r) (-i)^(n-1) that every ordering shares, and
    each row is applied once; every j is at least 1, so the operator kills
    constants.
    """
    weights = {}
    for order in set(permutations(mg)):
        w = CONE
        for (al, _), (be, _) in zip(mf, order):
            eta = ring.eta_inv_pair(al, be)
            if is_czero(eta):
                break
            w = cmul(w, eta)
        else:
            a = tuple(sorted(s + r + 1 for (_, s), (_, r) in zip(mf, order)))
            accumulate(weights, a, w)
    phase = I_POW[(1 - len(mg) + 2 * sum(r for _, r in mg)) % 4]
    denom = prod(factorial(len(list(run))) for _, run in groupby(mf))
    kernel = {}
    for a, w in weights.items():
        w = cmul(w, phase)
        for j, c in contraction_row(a).items():
            accumulate(kernel, j, cscale(w, c.numerator, c.denominator * denom))
    return tuple(kernel.items())


def _support(p, nonconstant=False):
    """(least u-degree, {genus: greatest u-degree}) over the terms of p, or
    over its non-constant terms; the least is None when there are none."""
    least = None
    top = {}
    for key in p.terms:
        d = key >> UDEG_AT & MASK
        if nonconstant and not d:
            continue
        if least is None or d < least:
            least = d
        gen = key & MASK
        if top.get(gen, -1) < d:
            top[gen] = d
    return least, top


def _pair_claim(ef, f_sup, eg, g_sup, gc, uc):
    """The exact_u that ring.product_claim gives df * acc, read from the
    exact_u and the supports of df and dg (see star_commutator_local)."""
    fval, ftop = f_sup
    gval, gtop = g_sup
    clipped = uc is not None and any(
        uf + ug > uc and (gc is None or gf + gg <= gc)
        for gf, uf in ftop.items() for gg, ug in gtop.items())
    return product_claim(ef, fval, eg, gval, uc if clipped else None)


def star_commutator_local(f, g, divided=False):
    """Quantum commutator of a density with a local functional.

    Orientation: order one reproduces hbar times the standard Poisson
    bracket, so (1/hbar) [f, g] at hbar = 0 is the classical flow.

    divided=True computes (1/hbar) [f, g] natively, with the hbar
    prefactors lowered by one before any window truncation; under a
    finite genus window this keeps flow terms that the divide-after
    route would clip.

    The order-n contraction of df = d^n f / du^mf and dg = d^n g / du^mg is
    df * sum_j c_j dx^j(dg), times hbar^s, where s = n, or n - 1 when
    divided.  The kernel {c_j}, sign and phase included, is _kernel's sum
    over the distinct orderings of mg.  Under a genus cutoff gc only terms
    of genus <= b_n = gc - 2 s reach the result, since partial and dx keep
    the genus and a product adds it; df and dg are cut to genus <= b_n
    before dg's dx^j chain is built.  The product is bilinear and b_n is
    the same for every pair of one order, so each df is multiplied once,
    by acc = the sum over every mg of sum_j c_j dx^j(dg), and acc is
    released after its product.  A term of acc above the genus room
    b_n - (least genus of the cut df) pairs with no term of df inside the
    window, so it is never added, and a pair whose room or cut lies below
    dg's least genus adds nothing.

    The rest of this work depends on one operand or on the ring alone,
    and each piece is computed once.  The multiset derivatives of f and of
    g, with their supports, are memoised on the operand itself (_tower)
    and live as long as it does; a later call needing a higher order adds
    the missing orders to the same tower.  Each entry of the tower also
    keeps dg's dx^j chains, one per genus cut c = min(b_n, top genus of
    dg), so that budgets keeping the same terms share a chain: the list
    [dg cut to genus <= c, dx of that, dx^2 of that, ...], grown as far as
    a kernel's largest j needs.  Since dx keeps the genus, the chain
    depends only on (dg, c).  Each kernel is memoised in the process-wide
    _KERNELS, keyed by ring.eta_inv and then (mf, mg), and lives as long as
    the process, like the kernel rows of _ROW_CACHE.  These memos are sound
    only because a DiffPoly is never changed after it is built, and
    compatible rings have equal windows.

    Each (mf, mg) pair claims what ring.product_claim gives df times its
    own sum_j c_j dx^j(dg), read from the supports of the uncut df and dg,
    and the result claims the least of them.  When the kernel {c_j} is
    nonzero, that sum is nonzero in exactly dg's non-constant (genus,
    u-degree) classes: dx keeps both gradings and kills only constants, so
    c_jmax dx^jmax of dg's top x-degree part in such a class survives.  A
    pair with an empty kernel or a u-free dg has a zero sum and claims
    nothing.
    """
    ring = f.ring
    if ring.mode != "quantum":
        raise ModeMismatch("star commutator needs a quantum ring")
    if isinstance(g, LocalFunctional):
        g = g.density
    ring.check(g.ring)
    n_max = min(f.udeg_max(), g.udeg_max())
    gc = ring.window.genus_cutoff
    uc = ring.window.u_degree_cutoff
    if gc is not None:
        n_max = min(n_max, gc // 2 + 1 if divided else gc // 2)
    f_levels = _multiset_derivs(f, n_max)
    g_levels = _multiset_derivs(g, n_max)
    kernels = _KERNELS.setdefault(ring.eta_inv, {})
    out = {}
    claims = []
    for n in range(1, n_max + 1):
        if n >= len(f_levels) or n >= len(g_levels):
            break
        s = n - 1 if divided else n
        budget = inf if gc is None else gc - 2 * s
        # per mf: df cut to the budget, the genus room its least genus
        # leaves (-1 when the cut keeps nothing) and its acc
        fs = []
        for mf, df, f_sup, _, _ in f_levels[n]:
            df_cut = {key: v for key, v in df.terms.items()
                      if key & MASK <= budget}
            room = budget - min(key & MASK for key in df_cut) if df_cut else -1
            fs.append((mf, df.exact_u, f_sup, df_cut, room, {}))
        # mg outside mf: one dx^j(dg) chain serves every mf
        for mg, dg, dg_sup, g_sup, chains in g_levels[n]:
            if g_sup[0] is None:
                continue
            low, top = min(dg_sup[1]), max(dg_sup[1])
            cut = min(budget, top)
            chain = chains.get(cut)
            for mf, ef, f_sup, df_cut, room, acc in fs:
                kernel = kernels.get((mf, mg))
                if kernel is None:
                    kernel = kernels[mf, mg] = _kernel(ring, mf, mg)
                if not kernel:
                    continue
                claims.append(_pair_claim(ef, f_sup, dg.exact_u, g_sup,
                                          gc, uc))
                keep = min(cut, room)
                if keep < low:
                    continue
                if chain is None:
                    chain = chains[cut] = [dg if cut == top else DiffPoly(
                        ring, {key: v for key, v in dg.terms.items()
                               if key & MASK <= cut})]
                for j, c in kernel:
                    while len(chain) <= j:
                        chain.append(dx(chain[-1]))
                    for key, v in chain[j].terms.items():
                        if key & MASK <= keep:
                            accumulate(acc, key, v, c)
        # one product per mf, its acc released after it
        while fs:
            _, _, _, df_cut, _, acc = fs.pop()
            if acc:
                mul_into(out, df_cut, acc, gc, uc, s)
    return DiffPoly(ring, out, emin(*claims))


def star_commutator(fbar, gbar):
    """Quantum commutator of two local functionals."""
    if isinstance(fbar, DiffPoly):
        fbar = LocalFunctional(fbar)
    return LocalFunctional(star_commutator_local(fbar.density, gbar))
