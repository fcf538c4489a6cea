"""Poisson brackets and their quantum deformation.

The classical bracket of a density with a local functional is

    {f, G} = D_f(K dG/du),   D_f = sum_{mu,s} df/du^mu_s dx^s,

the Frechet derivative D_f of f (jacobian) applied to the flow of G under
a Hamiltonian operator K; the standard K has entries eta^{mu nu} dx with
eta^ upper the inverse pairing matrix.  Operators are matrices of scalar
operators sum_j a_j dx^j (HamiltonianOperator of DiffOperator), which
apply, compose and take formal adjoints; miura.push_operator conjugates
K by a coordinate change as J K J-dagger, J the jacobian of the change.

The quantum bracket replaces K by a full star-product commutator: the order
n >= 1 piece contracts n-th multiset derivatives of both arguments through
eta.  Each distinct ordering of the second multiset's letters (beta_i, r_i)
is paired slot by slot with the sorted letters (alpha_i, s_i) of the first;
the pairing weighs prod eta^{alpha_i beta_i}, divided by the factorials of
the first multiset's multiplicities, and carries the kernel row

    sum_j C_j^{a_1..a_n} dx^j,   a_i = s_i + r_i + 1,

where the C row is read off the expansion of a product of polylogarithms
Li_{-d}(z) = sum_{k>=1} k^d z^k in the basis Li_{-j}(z), which has a closed
form in integer coefficient triples (polylog_product_coeffs).

Both brackets form each result as one sum of products, in one call of
ring.mul_sum, so each output term is normalised once however many products
reach it.  An operator forms each row of its action that way, from the
pairs (a_j, dx^j p) of DiffOperator._pairs, and the classical bracket is
such an action too: the row of D_f = jacobian({1: f}) applied to the flow.
The quantum one sums, for each order and first multiset mf, the kernels
applied to every second operand's derivative into one dict, acc, and its
one sum pairs the derivative of mf with that acc, at the order's power of
hbar.  Under a genus cutoff acc keeps only the terms that can reach the
window beside the least genus of that derivative.
Each dx^j p these products read is ring.dx_pow's, kept on p, so none is
taken twice.  Every claim is ring.claim's: an action claims as the sum of
its products, and the quantum bracket order by order, from its two
operands; either is capped at the u-degree cutoff when that cutoff
dropped a product of the sum.

The same few functionals enter many brackets (every level of the
recursion brackets with the one generator), so work is memoised by one
rule: what is derived from one polynomial is kept on it (see DiffPoly),
and what depends on the ring alone, each kernel row and summed (mf, mg)
kernel, in a process-wide dict (_ROW_CACHE, _KERNELS).  A bracket
depends on a functional only through its class, so both brackets read an
operand g as one polynomial (_operand): a LocalFunctional as its reduced
density, a DiffPoly as itself.
"""

from itertools import groupby, permutations
from math import comb, factorial, inf, prod

from .rat import bernoulli
from .coeffs import (CONE, I_POW, accumulate, as_coeff, cmul, cneg, cscale,
                     is_czero)
from .errors import ModeMismatch
from .ring import (DiffPoly, accumulate_cut, claim, dx_pow, emin, partial,
                   product_sum)
from .functionals import LocalFunctional, var_deriv

__all__ = ["DiffOperator", "HamiltonianOperator", "jacobian",
           "polylog_product_coeffs",
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
                # an exact zero adds nothing; a windowed one keeps its claim
                if a.terms or a.exact_u is not None:
                    ring.check(a.ring)
                    cleaned[j] = a
        self.coeffs = cleaned

    @classmethod
    def dx_power(cls, ring, j, coeff):
        return cls(ring, {j: coeff})

    def is_zero(self):
        return not self.coeffs

    def _pairs(self, pairs, p):
        """Append the pair (a_j, dx^j p) of each product a_j * dx^j(p) to
        pairs, for ring.mul_sum, and return the least of their ring.claim,
        as the sum of those products claims before any u-degree drop."""
        self.ring.check(p.ring)
        c = None
        for j in sorted(self.coeffs):
            a, cur = self.coeffs[j], dx_pow(p, j)
            pairs.append((a.terms, cur.terms, 0))
            c = emin(c, claim(a, cur))
        return c

    def apply(self, p):
        """sum_j a_j * dx^j(p), formed as one sum (_pairs)."""
        pairs = []
        return product_sum(self.ring, pairs, self._pairs(pairs, p))

    def compose(self, other):
        """Operator product self . other using the Leibniz rule."""
        self.ring.check(other.ring)
        out = {}
        for i, a in self.coeffs.items():
            for m in range(i + 1):
                for j, b in other.coeffs.items():
                    c = a * dx_pow(b, m) * comb(i, m)
                    k = i + j - m
                    out[k] = out.get(k, self.ring.zero()) + c
        return DiffOperator(self.ring, out)

    def adjoint(self):
        """The formal adjoint sum_j (-dx)^j . a_j, in closed form
        sum_j sum_m (-1)^j C(j, m) dx^m(a_j) dx^(j-m): for all a and b,
        integrate(a * L(b)) = integrate(L.adjoint()(a) * b)."""
        out = {}
        for j, a in self.coeffs.items():
            for m in range(j + 1):
                c = dx_pow(a, m).scale((-1) ** j * comb(j, m))
                out[j - m] = out.get(j - m, self.ring.zero()) + c
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
                ring.check(op.ring)
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
        """Matrix action on a covector {nu: poly}, giving {mu: poly}: row
        mu = sum_nu K^{mu nu}(vec[nu]) is one sum of the products
        DiffOperator._pairs gathers and claims.  An exact zero vec[nu]
        reaches no row, a windowed one keeps its claim, and a row that no
        entry reaches is absent."""
        rows = {}
        for (mu, nu), op in self.entries.items():
            p = vec.get(nu)
            if p is not None and (p.terms or p.exact_u is not None):
                pairs, c = rows.get(mu, ([], None))
                rows[mu] = pairs, emin(c, op._pairs(pairs, p))
        return {mu: product_sum(self.ring, pairs, c)
                for mu, (pairs, c) in rows.items()}

    def compose(self, other):
        """The matrix product self . other of operators."""
        out = {}
        for (mu, s), a in self.entries.items():
            for (t, nu), b in other.entries.items():
                if s == t:
                    out[mu, nu] = out.get((mu, nu), DiffOperator(
                        self.ring)) + a.compose(b)
        return HamiltonianOperator(self.ring, out)

    def adjoint(self):
        """The formal adjoint: entry (nu, mu) is the adjoint of (mu, nu)."""
        return HamiltonianOperator(self.ring, {
            (nu, mu): op.adjoint() for (mu, nu), op in self.entries.items()})

    def __eq__(self, other):
        if not isinstance(other, HamiltonianOperator):
            return NotImplemented
        return self.entries == other.entries

    __hash__ = None


def jacobian(images):
    """The Frechet derivative of the polynomials images = {a: poly}: the
    operator whose entry (a, mu) is sum_s d images[a] / du^mu_s dx^s.

    The unknown part of a windowed image may hold any letter, so its
    partial at every letter u^mu_s through the image's x-order is kept,
    windowed even when zero.  Applied, the one at s = 0 already bounds the
    claim of any higher letter, since dx^s keeps or raises a floor."""
    ring = next(iter(images.values())).ring
    entries = {}
    for a, f in images.items():
        letters = f.support_vars() if f.exact_u is None else [
            (mu, s) for mu in range(1, ring.n_vars + 1)
            for s in range(f.xorder_max() + 1)]
        for mu, s in sorted(letters):
            entries.setdefault((a, mu), {})[s] = partial(f, mu, s)
    return HamiltonianOperator(ring, {key: DiffOperator(ring, coeffs)
                                      for key, coeffs in entries.items()})


# ---------------------------------------------------------------------------
# classical bracket


def _operand(g):
    """The polynomial a bracket reads for g: its reduced density
    (LocalFunctional.reduced), or g itself when it is a DiffPoly."""
    return g.reduced() if isinstance(g, LocalFunctional) else g


def _flow(K, g):
    """{mu: w_mu}, the rows of K grad g."""
    return K.apply({nu: var_deriv(g, nu)
                    for nu in range(1, g.ring.n_vars + 1)})


def poisson_local(f, g, operator=None):
    """Bracket of a density f with a local functional g (class-invariant):
    D_f(K grad g), D_f = jacobian({1: f}) the Frechet derivative of f.

    The result is row 1 of D_f acting on the flow rows (K grad g)_mu, so
    it is one sum, formed and claimed as an operator forms and claims a
    row; the D_f of a windowed f reaches every flow row (see jacobian).
    g is read as _operand reads it, and the standard operator's
    (operator=None) flow rows are memoised on that polynomial (DiffPoly
    _flow); an explicit operator's flow is built afresh.  var_deriv is
    class-invariant term by term and the peel keeps exact_u, so reading
    the reduced density changes no flow term.
    """
    ring = f.ring
    g = _operand(g)
    ring.check(g.ring)
    if operator is not None:
        ring.check(operator.ring)
        flow = _flow(operator, g)
    else:
        flow = getattr(g, "_flow", None)
        if flow is None:
            flow = g._flow = _flow(HamiltonianOperator.standard(ring), g)
    return jacobian({1: f}).apply(flow).get(1, ring.zero())


def poisson(fbar, gbar, operator=None):
    """Bracket of two local functionals, a class: fbar enters as its
    reduced density, gbar through its variational derivatives.  Either may
    be a bare DiffPoly."""
    if isinstance(fbar, DiffPoly):
        fbar = LocalFunctional(fbar)
    return LocalFunctional(poisson_local(fbar.reduced(), gbar, operator))


# ---------------------------------------------------------------------------
# contraction kernel


def _pair_row(p, q):
    """{j: c_j} of Li_{-p} Li_{-q} = sum_j c_j Li_{-j}, for p, q >= 1, in
    ascending j, by the closed form of polylog_product_coeffs.

    B_i vanishes at odd i > 1.  At even i the alternating binomial sum is
    (-1)^q binom(p, i-1-q) + (-1)^p binom(q, i-1-p), a binomial with a
    negative lower index being 0; at i = 1 it is sum_t (-1)^t binom(q, t)
    = 0.  So only even i are formed, each in O(1).
    """
    top = p + q + 1
    row = {}
    for i in range((p + q) // 2 * 2, 1, -2):
        s = 0
        if i > q:
            s += (-1) ** q * comb(p, i - 1 - q)
        if i > p:
            s += (-1) ** p * comb(q, i - 1 - p)
        if s:
            row[top - i] = cscale(as_coeff(bernoulli(i)), s, i)
    row[top] = cscale(CONE, 1, top * comb(p + q, p))
    return row


def polylog_product_coeffs(ds):
    """Expansion of prod_i Li_{-d_i}(z) as sum_j c_j Li_{-j}(z), d_i >= 1.

    Returns {j: c_j} in ascending j, each c_j a coefficient triple; every
    j lies in 1 .. sum(ds) + len(ds) - 1 and has the parity of that
    bound.  Two factors have a closed form (_pair_row): Li_{-p} Li_{-q}
    has c_j = p! q! / (p+q+1)! at j = p+q+1 and, for 1 <= i <= p+q,

        c_j = (B_i / i) sum_{t=max(0,i-p)}^{q} (-1)^t binom(q,t) binom(p+t,i-1)

    at j = p+q+1-i, B_i from rat.bernoulli.  The expansion is bilinear,
    so a longer product folds one factor at a time:
    (sum_j c_j Li_{-j}) Li_{-d} = sum_j c_j sum_k row(j, d)_k Li_{-k}.
    """
    first, *rest = ds
    row = {first: CONE}
    for d in rest:
        nxt = {}
        for j, c in row.items():
            for k, e in _pair_row(j, d).items():
                accumulate(nxt, k, c, e)
        row = dict(sorted(nxt.items()))
    return row


_ROW_CACHE = {}


def contraction_row(a_sorted):
    """Signed kernel row for contraction weights a_i, as {j: C_j}.

    C_j = (-1)^((n-1+sum a - j)/2) c_j, with c_j the closed-form expansion
    of prod_i Li_{-a_i} (polylog_product_coeffs), whose every j has the
    parity of n-1+sum a.  Entries are coefficient triples.
    """
    row = _ROW_CACHE.get(a_sorted)
    if row is None:
        tot = len(a_sorted) - 1 + sum(a_sorted)
        row = _ROW_CACHE[a_sorted] = {
            j: cneg(c) if (tot - j) % 4 else c
            for j, c in polylog_product_coeffs(a_sorted).items()}
    return row


# ---------------------------------------------------------------------------
# quantum bracket


def _multiset_derivs(f, n_max):
    """f's nonzero iterated partials by letter multisets through order n_max.

    Returns f's tower, a list levels[n] = [(multiset, poly, least genus,
    lettered)]: multiset a sorted tuple of letters (alpha, k), least genus
    that of poly's terms and lettered whether one has a letter (a u-free
    dg adds nothing, as the kernel kills constants); levels[0] holds f
    alone.  Under a genus cutoff gc an order-n partial is cut to genus
    gc - 2(n - 1) as it is built, the largest budget any call gives order
    n, since partial keeps the genus and higher orders have smaller
    budgets; an entry the cut empties is dropped.  The tower lives on f
    (_tower) and grows there, one order at a time, up to n_max or up to
    the first order with no partial, which ends it as an empty level.
    """
    levels = getattr(f, "_tower", None)
    if levels is None:
        levels = f._tower = [[((), f, None, None)]]
    gc = f.ring.window.genus_cutoff
    while len(levels) <= n_max and levels[-1]:
        budget = None if gc is None else gc - 2 * (len(levels) - 1)
        nxt = []
        for ms, p, _, _ in levels[-1]:
            floor = ms[-1] if ms else None
            for al, k in sorted(p.support_vars()):
                letter = (al, k)
                if floor is not None and letter < floor:
                    continue
                d = partial(p, al, k)
                if budget is not None:
                    d = d.genus_cut(budget)
                    if not d.terms:
                        continue
                nxt.append((ms + (letter,), d, d.genera()[0],
                            not d.is_constant()))
        levels.append(nxt)
    return levels


# the kernel of each (mf, mg) pair, per inverse pairing ring.eta_inv
_KERNELS = {}


def _kernel(ring, mf, mg):
    """The operator sum_j c_j dx^j of one (mf, mg) pair, as a tuple of
    (j, c_j) pairs, () when it is zero, memoised in the process-wide
    _KERNELS by ring.eta_inv and then (mf, mg); a miss sums it here.

    A contraction pairs the n letters (alpha_i, s_i) of mf one to one with
    the n letters (beta_i, r_i) of mg; it weighs prod eta^{alpha_i beta_i}
    and carries the kernel row of the sorted a_i = s_i + r_i + 1.  The
    sorted mf is paired slot by slot with each distinct ordering of mg,
    and an ordering with a zero eta factor is dropped.  A pattern that
    pairs letter i of mf with letter j of mg T_ij times arises from
    prod m_i! / prod T_ij! orderings, m_i the multiplicities of mf, so
    dividing the sum by prod m_i! gives each pattern the weight
    1 / prod T_ij! of its symmetry.  The weights are summed per sorted a,
    times that denominator's inverse and the phase (-1)^(sum r) (-i)^(n-1)
    every ordering shares, and each row is applied once; every j is at
    least 1, so the operator kills constants.
    """
    kernels = _KERNELS.setdefault(ring.eta_inv, {})
    kernel = kernels.get((mf, mg))
    if kernel is not None:
        return kernel
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
    scale = cscale(I_POW[(1 - len(mg) + 2 * sum(r for _, r in mg)) % 4], 1,
                   prod(factorial(len(list(run))) for _, run in groupby(mf)))
    out = {}
    for a, w in weights.items():
        w = cmul(w, scale)
        for j, c in contraction_row(a).items():
            accumulate(out, j, w, c)
    kernel = kernels[mf, mg] = tuple(out.items())
    return kernel


def star_commutator_local(f, g, divided=False):
    """Quantum commutator of a density with a local functional.

    Orientation: order one reproduces hbar times the standard Poisson
    bracket, so (1/hbar) [f, g] at hbar = 0 is the classical flow.

    The result depends on g only through its class modulo dx and
    constants, term by term and not only as a class, so g is read as
    _operand reads it: a LocalFunctional as its memoised reduced density,
    often half the terms of its density.  The peel keeps each term's
    u-degree and genus, so the claim from the reduced density is never
    below the one from the density.

    divided=True computes (1/hbar) [f, g] natively, with the hbar
    prefactors lowered by one before any window truncation; under a
    finite genus window this keeps flow terms that the divide-after
    route would clip.

    The order-n contraction of df = d^n f / du^mf and dg = d^n g / du^mg is
    df * sum_j c_j dx^j(dg), times hbar^s, where s = n, or n - 1 when
    divided.  The kernel {c_j}, sign and phase included, is _kernel's sum
    over the distinct orderings of mg.  Under a genus cutoff gc only terms
    of genus <= b_n = gc - 2 s reach the result, since partial and dx keep
    the genus and a product adds it; the tower already cuts df and dg to
    the divided budget gc - 2(n - 1), and the call cuts them to b_n
    (genus_cut) before dx^j of dg is taken.  The product is bilinear
    and b_n is the same for every pair of one order, so each df is
    multiplied once, by acc = the sum over every mg of sum_j c_j dx^j(dg),
    and the pairs (df, acc) of every order, each at its own hbar^s, form
    one ring.mul_sum.  A term of acc above the genus room b_n - (least
    genus of df) pairs with no term of df inside the window, so it is
    never added, and a pair whose room lies below dg's least genus adds
    nothing.

    The towers, their cuts and the dx^j of each cut are kept on the
    polynomials they derive from (see DiffPoly), so a later call reuses
    them and adds any missing order to the same tower; each kernel
    memoises itself (_kernel).

    The claim is ring.claim's, order by order: at order n a term of f of
    u-degree d1 >= n meets a non-constant n-th derivative of a term of g,
    of u-degree d2 >= n + 1, within the genus room b_n, and the result
    has u-degree d1 + d2 - 2n.  Every order the genus cutoff leaves counts,
    whether or not the visible terms reach it.
    """
    ring = f.ring
    if ring.mode != "quantum":
        raise ModeMismatch("star commutator needs a quantum ring")
    g = _operand(g)
    ring.check(g.ring)
    f_top, g_top = f.udeg_max(), g.udeg_max()
    n_max = min(f_top, g_top)
    gc = ring.window.genus_cutoff
    if gc is not None:
        n_max = min(n_max, gc // 2 + divided)
    f_levels = _multiset_derivs(f, n_max)
    g_levels = _multiset_derivs(g, n_max)
    pairs = []  # (df cut, acc, s) of every order, for one ring.mul_sum
    for n in range(1, n_max + 1):
        if n >= len(f_levels) or n >= len(g_levels):
            break
        s = n - 1 if divided else n
        budget = inf if gc is None else gc - 2 * s
        # per mf: df cut to the budget, the genus room its least genus
        # leaves and its acc
        fs = [(mf, df.genus_cut(budget).terms, budget - low, {})
              for mf, df, low, _ in f_levels[n]]
        # mg outside mf: one cut of dg serves every mf
        for mg, dg, low, lettered in g_levels[n]:
            if not lettered:
                continue
            for mf, df_cut, room, acc in fs:
                if room < low:
                    continue
                kernel = _kernel(ring, mf, mg)
                if not kernel:
                    continue
                cut = dg.genus_cut(budget)
                for j, c in kernel:
                    accumulate_cut(acc, dx_pow(cut, j).terms, c, room)
        # one product per mf
        pairs += [(df_cut, acc, s) for _, df_cut, _, acc in fs]
    # the claim counts every order the genus cutoff leaves; with none,
    # every order past the visible u-degrees and the claims claims alike
    top = gc // 2 + divided if gc is not None else max(
        f_top, g_top, *(e + 1 for e in (f.exact_u, g.exact_u) if e is not None))
    claimed = None
    for n in range(1, top + 1):
        room = inf if gc is None else gc - 2 * (n - divided)
        claimed = claim(f, g, claimed, (n, n + 1), 2 * n, room)
    return product_sum(ring, pairs, claimed)


def star_commutator(fbar, gbar):
    """Quantum commutator of two local functionals, a class: fbar enters
    as its reduced density, and so does gbar (see
    star_commutator_local).  Either may be a bare DiffPoly."""
    if isinstance(fbar, DiffPoly):
        fbar = LocalFunctional(fbar)
    return LocalFunctional(star_commutator_local(fbar.reduced(), gbar))
