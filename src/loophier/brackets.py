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

Both brackets form their products with ring.mul_into, each into one term
dict.  An operator forms each row of its action that way, in
DiffOperator._apply_into, and the classical bracket is such an action
too: the row of D_f = jacobian({1: f}) applied to the flow.  The quantum
one sums, for each first multiset mf, the kernels applied to every second
operand's derivative into one dict, and then multiplies it by the
derivative of mf once.  Under a genus cutoff that sum keeps only the terms
that can reach the window beside the least genus of that derivative.
Every list [p, dx p, dx^2 p, ...] these products read, of an operand, a
flow row or a multiset derivative, is a chain grown in place by
ring.dx_chain, so no link of it is differentiated twice.  Every claim is
ring.claim's: an action claims as the sum of its products, and the
quantum bracket order by order, from its two operands.

The same few functionals enter many brackets (every level of the
recursion brackets with the one generator), so the work that depends on
one operand or on the ring alone is memoised.  The classical flow K dG/du
of the standard operator, and the dx^s chain of each of its rows, live on
the LocalFunctional G (_flow) as long as it does.  Each star operand's
multiset derivatives, and the dx^j chains of each derivative, live on
the DiffPoly (_tower) in the same way, and each kernel row and each
summed (mf, mg) kernel lives in a process-wide dict (_ROW_CACHE,
_KERNELS).  This is sound because a DiffPoly is never changed after it is
built, and compatible rings have equal windows.
"""

from itertools import groupby, permutations
from math import comb, factorial, inf, prod

from .rat import bernoulli
from .coeffs import (CONE, I_POW, accumulate, as_coeff, cmul, cneg, cscale,
                     is_czero)
from .errors import ModeMismatch
from .ring import (MASK, UDEG_AT, DiffPoly, claim, dx_chain, emin, mul_into,
                   partial)
from .functionals import LocalFunctional

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

    def _apply_into(self, out, chain):
        """Add each product a_j * dx^j(p) into the term dict out by
        ring.mul_into, and return the least of their ring.claim, as the sum
        of those products would claim; chain is p's chain [p, dx p, ...],
        grown by ring.dx_chain, so the callers that read one p share its
        links."""
        window = self.ring.window
        gc, uc = window.genus_cutoff, window.u_degree_cutoff
        c = None
        for j in sorted(self.coeffs):
            a, cur = self.coeffs[j], dx_chain(chain, j)
            dropped = mul_into(out, a.terms, cur.terms, gc, uc)
            c = emin(c, claim(a, cur, uc if dropped else None))
        return c

    def apply(self, p):
        """sum_j a_j * dx^j(p), formed in one term dict (_apply_into)."""
        out = {}
        return DiffPoly(self.ring, out, self._apply_into(out, [p]))

    def compose(self, other):
        """Operator product self . other using the Leibniz rule."""
        self.ring.check(other.ring)
        chains = {j: [b] for j, b in other.coeffs.items()}
        out = {}
        for i, a in self.coeffs.items():
            for m in range(i + 1):
                for j, chain in chains.items():
                    c = a * dx_chain(chain, m) * comb(i, m)
                    k = i + j - m
                    out[k] = out.get(k, self.ring.zero()) + c
        return DiffOperator(self.ring, out)

    def adjoint(self):
        """The formal adjoint sum_j (-dx)^j . a_j: for all a and b,
        integrate(a * L(b)) = integrate(L.adjoint()(a) * b)."""
        ring = self.ring
        out = DiffOperator(ring)
        for j, a in self.coeffs.items():
            minus_dx = DiffOperator(ring, {j: ring.const((-1) ** j)})
            out = out + minus_dx.compose(DiffOperator(ring, {0: a}))
        return out

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
        """Matrix action on a covector {nu: poly}, giving {mu: poly}.

        Row mu is sum_nu K^{mu nu}(vec[nu]), every product a_j * dx^j of
        it formed in one term dict, and claimed, by DiffOperator._apply_into.
        The entries of column nu share one chain of vec[nu].  An exact zero
        vec[nu] reaches no row, a windowed one keeps its claim, and a row
        no entry reaches is absent.
        """
        chains = {nu: [p] for nu, p in vec.items()
                  if p.terms or p.exact_u is not None}
        rows = {}
        for (mu, nu), op in self.entries.items():
            chain = chains.get(nu)
            if chain is not None:
                out, c = rows.get(mu, ({}, None))
                rows[mu] = out, emin(c, op._apply_into(out, chain))
        return {mu: DiffPoly(self.ring, out, c)
                for mu, (out, c) in rows.items()}

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


def _flow(K, g):
    """{mu: [w_mu]}, the chain of each row w_mu of K grad g."""
    grad = {nu: g.var_deriv(nu) for nu in range(1, g.ring.n_vars + 1)}
    return {mu: [w] for mu, w in K.apply(grad).items()}


def poisson_local(f, g, operator=None):
    """Bracket of a density f with a local functional g (class-invariant):
    D_f(K grad g), D_f = jacobian({1: f}) the Frechet derivative of f.

    Each entry (1, mu) of D_f applies to the chain of the flow row
    (K grad g)_mu through DiffOperator._apply_into, so the result is formed
    and claimed as HamiltonianOperator.apply forms and claims a row; the
    D_f of a windowed f reaches every row (see jacobian).  Under the
    standard operator (operator=None)
    the flow rows and their chains are memoised on g (LocalFunctional
    _flow), built once however many densities g brackets with; an explicit
    operator's flow is built afresh.
    """
    ring = f.ring
    if isinstance(g, DiffPoly):
        g = LocalFunctional(g)
    ring.check(g.ring)
    if operator is not None:
        ring.check(operator.ring)
        flow = _flow(operator, g)
    else:
        if g._flow is None:
            g._flow = _flow(HamiltonianOperator.standard(ring), g)
        flow = g._flow
    out, c = {}, None
    for (_, mu), op in jacobian({1: f}).entries.items():
        chain = flow.get(mu)
        if chain is not None:
            c = emin(c, op._apply_into(out, chain))
    return DiffPoly(ring, out, c)


def poisson(fbar, gbar, operator=None):
    """Bracket of two local functionals."""
    if isinstance(fbar, DiffPoly):
        fbar = LocalFunctional(fbar)
    return LocalFunctional(poisson_local(fbar.density, gbar, operator))


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

    Returns f's tower, a list levels[n] = [(multiset, poly, genera,
    chains)], the multisets sorted tuples of letters (alpha, k), genera
    that of _genera and chains the memo of star_commutator_local's dx^j
    chains; levels[0] holds f alone, without genera or chains.  The tower
    lives in f's _tower slot and grows there, one
    order at a time, up to n_max or up to the first order with no partial,
    which ends it as an empty level.
    """
    levels = getattr(f, "_tower", None)
    if levels is None:
        levels = f._tower = [[((), f, None, None)]]
    while len(levels) <= n_max and levels[-1]:
        nxt = []
        for ms, p, _, _ in levels[-1]:
            floor = ms[-1] if ms else None
            for al, k in sorted(p.support_vars()):
                letter = (al, k)
                if floor is not None and letter < floor:
                    continue
                d = partial(p, al, k)
                nxt.append((ms + (letter,), d, _genera(d), {}))
        levels.append(nxt)
    return levels


# the kernel of each (mf, mg) pair, per inverse pairing ring.eta_inv
_KERNELS = {}


def _orderings(mg):
    """The distinct orderings of mg's letters (beta_i, r_i), and the phase
    (-1)^(sum r) (-i)^(n-1) that every ordering shares."""
    return (tuple(set(permutations(mg))),
            I_POW[(1 - len(mg) + 2 * sum(r for _, r in mg)) % 4])


def _multiplicities(mf):
    """prod m_i!, m_i the multiplicities of mf's letters."""
    return prod(factorial(len(list(run))) for _, run in groupby(mf))


def _kernel(ring, mf, denom, orders, phase):
    """The operator sum_j c_j dx^j of one (mf, mg) pair, as a tuple of
    (j, c_j) pairs, () when it is zero; denom is _multiplicities(mf) and
    (orders, phase) is _orderings(mg).

    A contraction pairs the n letters (alpha_i, s_i) of mf one to one with
    the n letters (beta_i, r_i) of mg; it weighs prod eta^{alpha_i beta_i}
    and carries the kernel row of the sorted a_i = s_i + r_i + 1.  The
    sorted mf is paired slot by slot with each distinct ordering of mg,
    and an ordering with a zero eta factor is dropped.  A pattern that
    pairs letter i of mf with letter j of mg T_ij times arises from
    prod m_i! / prod T_ij! orderings, m_i the multiplicities of mf, so
    dividing the sum by prod m_i! gives each pattern the weight
    1 / prod T_ij! of its symmetry.  The weights are summed per sorted a,
    times the phase and 1 / denom, and each row is applied once; every j
    is at least 1, so the operator kills constants.
    """
    weights = {}
    for order in orders:
        w = CONE
        for (al, _), (be, _) in zip(mf, order):
            eta = ring.eta_inv_pair(al, be)
            if is_czero(eta):
                break
            w = cmul(w, eta)
        else:
            a = tuple(sorted(s + r + 1 for (_, s), (_, r) in zip(mf, order)))
            accumulate(weights, a, w)
    if not weights:
        return ()
    scale = cscale(phase, 1, denom)
    kernel = {}
    for a, w in weights.items():
        w = cmul(w, scale)
        for j, c in contraction_row(a).items():
            accumulate(kernel, j, w, c)
    return tuple(kernel.items())


def _genera(p):
    """(least genus, greatest genus) of p's terms, or None when p is u-free:
    the kernel kills constants, so a u-free dg adds nothing."""
    if not any(key >> UDEG_AT & MASK for key in p.terms):
        return None
    genera = [key & MASK for key in p.terms]
    return min(genera), max(genera)


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
    g, with their genera, are memoised on the operand itself (_tower)
    and live as long as it does; a later call needing a higher order adds
    the missing orders to the same tower.  Each entry of the tower also
    keeps dg's dx^j chains, one per genus cut c = min(b_n, top genus of
    dg), so that budgets keeping the same terms share a chain: the list
    [dg cut to genus <= c, dx of that, dx^2 of that, ...], grown as far as
    a kernel's largest j needs.  Since dx keeps the genus, the chain
    depends only on (dg, c).  Each kernel is memoised in the process-wide
    _KERNELS, keyed by ring.eta_inv and then (mf, mg), and lives as long as
    the process, like the kernel rows of _ROW_CACHE.  A missing kernel is
    summed from mg's distinct orderings and phase (_orderings) and mf's
    multiplicity denominator (_multiplicities), each formed on the first
    miss of its multiset in the call.  These memos are sound
    only because a DiffPoly is never changed after it is built, and
    compatible rings have equal windows.

    The claim is ring.claim's, order by order: at order n a term of f of
    u-degree d1 >= n meets a non-constant n-th derivative of a term of g,
    of u-degree d2 >= n + 1, within the genus room b_n, and the result
    has u-degree d1 + d2 - 2n.  Every order the genus cutoff leaves counts,
    whether or not the visible terms reach it.
    """
    ring = f.ring
    if ring.mode != "quantum":
        raise ModeMismatch("star commutator needs a quantum ring")
    if isinstance(g, LocalFunctional):
        g = g.density
    ring.check(g.ring)
    f_top, g_top = f.udeg_max(), g.udeg_max()
    n_max = min(f_top, g_top)
    gc = ring.window.genus_cutoff
    uc = ring.window.u_degree_cutoff
    if gc is not None:
        n_max = min(n_max, gc // 2 + divided)
    f_levels = _multiset_derivs(f, n_max)
    g_levels = _multiset_derivs(g, n_max)
    kernels = _KERNELS.setdefault(ring.eta_inv, {})
    denoms = {}  # _multiplicities of each mf whose kernel was missing
    out = {}
    claimed = None
    for n in range(1, n_max + 1):
        if n >= len(f_levels) or n >= len(g_levels):
            break
        s = n - 1 if divided else n
        budget = inf if gc is None else gc - 2 * s
        # per mf: df cut to the budget, the genus room its least genus
        # leaves (-1 when the cut keeps nothing) and its acc
        fs = []
        for mf, df, _, _ in f_levels[n]:
            df_cut = {key: v for key, v in df.terms.items()
                      if key & MASK <= budget}
            room = budget - min(key & MASK for key in df_cut) if df_cut else -1
            fs.append((mf, df_cut, room, {}))
        # mg outside mf: one dx^j(dg) chain serves every mf
        for mg, dg, genera, chains in g_levels[n]:
            if genera is None:
                continue
            low, top = genera
            cut = min(budget, top)
            chain = chains.get(cut)
            orderings = None
            for mf, df_cut, room, acc in fs:
                keep = min(cut, room)
                if keep < low:
                    continue
                kernel = kernels.get((mf, mg))
                if kernel is None:
                    if orderings is None:
                        orderings = _orderings(mg)
                    if mf not in denoms:
                        denoms[mf] = _multiplicities(mf)
                    kernel = kernels[mf, mg] = _kernel(
                        ring, mf, denoms[mf], *orderings)
                if not kernel:
                    continue
                if chain is None:
                    chain = chains[cut] = [dg if cut == top else DiffPoly(
                        ring, {key: v for key, v in dg.terms.items()
                               if key & MASK <= cut})]
                for j, c in kernel:
                    for key, v in dx_chain(chain, j).terms.items():
                        if key & MASK <= keep:
                            accumulate(acc, key, v, c)
        # one product per mf, its acc released after it
        while fs:
            _, df_cut, _, acc = fs.pop()
            if acc and mul_into(out, df_cut, acc, gc, uc, s):
                claimed = uc
    # the claim counts every order the genus cutoff leaves; with none,
    # every order past the visible u-degrees and the claims claims alike
    top = gc // 2 + divided if gc is not None else max(
        f_top, g_top, *(e + 1 for e in (f.exact_u, g.exact_u) if e is not None))
    for n in range(1, top + 1):
        room = inf if gc is None else gc - 2 * (n - divided)
        claimed = claim(f, g, claimed, (n, n + 1), 2 * n, room)
    return DiffPoly(ring, out, claimed)


def star_commutator(fbar, gbar):
    """Quantum commutator of two local functionals."""
    if isinstance(fbar, DiffPoly):
        fbar = LocalFunctional(fbar)
    return LocalFunctional(star_commutator_local(fbar.density, gbar))
