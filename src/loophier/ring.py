"""Graded ring of differential polynomials.

Variables u^alpha_k (alpha = 1..n_vars, k >= 0 the x-derivative order) over
Gaussian rationals with optional formal parameters, together with the two
formal series variables eps (one per genus expansion step) and, on quantum
rings, hbar.  Gradings used throughout:

    degree:   sum k*pow  - eps_pow - 2*hbar_pow
    D-weight: sum pow    + eps_pow + 2*hbar_pow

A term is keyed by one int of 16-bit slots.  The header slots, lowest
first, hold the genus eps_pow + 2*hbar_pow, the u-degree sum pow, eps_pow,
hbar_pow and the parameter degree, the sum of the parameter exponents.  One
slot per declared parameter follows, in declaration order, and then the
letter field: u^alpha_k has its slot k*n_vars + (alpha - 1) there.  The
layout depends only on (n_vars, params), so equal rings key a term alike.
Every slot adds under multiplication, so the key of a product of terms is
the sum of their keys; dx moves one power from the slot of u^alpha_k to
that of u^alpha_{k+1}, and partial reads a power with a shift and a mask.
The genus, u-degree and parameter degree bound the other slots, and none
may reach 2^16: building a term refuses it, and mul_sum refuses a product
that could.  Keys are decoded to (eps_pow, hbar_pow, params, factors), with
params a sorted tuple of (name, exp) and factors one of (alpha, k, pow),
only where text or its order needs them: decode reads the parameter slots
in an order sorted once per ring, and letters, the one walk over the
letter field, already yields one variable's letters in order.  A key's
value is a coefficient, a normalised integer triple kept by coeffs;
serialize sorts the decoded terms once and writes each coefficient as the
"n/d" texts of coeffs.to_text.  Polynomials are immutable and always
canonical: no zero values, no duplicate keys.

A ring's TruncationWindow drops every term of genus above its genus cutoff
or of u-degree above its u-degree cutoff.  The window's one product rule is
mul_sum, the only loop over term pairs, which forms a whole sum of products
sum a * b * hbar^h in one call.  Genus adds under multiplication and every
genus is at least 0, so for each pair mul_sum groups b's terms into genus
classes, ascending, and each term of a stops at the first class above the
genus room the cutoff leaves it: pairs the cutoff drops are never visited.

A sum has one denominator.  mul_sum writes every coefficient of the sum
over D, the lcm over its pairs of lcm(a's denominators) * lcm(b's
denominators), so each product of a pair is a Gaussian integer over D.
Products add as integers, with no gcd, and each key the sum keeps is
normalised once, at the end: one gcd per output term, not one per product.

A windowed polynomial p (exact_u e, not None) agrees with its true value
through u-degree e; the unknown rest may hold any term above e.  Its floor
is the least u-degree the true value can have: min(val_u, e + 1), or e + 1
for a windowed zero; an exact polynomial's floor is its val_u, and an
exact zero has none.  The one claim rule is claim: a bilinear result
differs from the one its operands' visible parts give by the unknown part
of one times the true other, which starts above e1 + floor2 (or e2 +
floor1) less what the operation takes off the u-degree.  So a claim comes
from each operand's exact_u, floor and genus room, never from the pairs
the visible terms happen to form, and a product the u-degree cutoff drops
caps it at that cutoff.

dx_pow keeps each dx of a polynomial on it (DiffPoly._dx), so each step
is taken once for all its readers.

Only this module reads or builds a term key, as only coeffs reads a
coefficient triple.  Other modules go through its functions (mul_sum,
product_sum, dx, peel, accumulate_cut) and the methods of RingContext and
DiffPoly, so a change of the layout is a change of this file alone.
"""

from functools import reduce
from heapq import heapify, heappop, heappush
from math import inf, lcm
from numbers import Rational
from operator import or_

from .rat import Q, Q0, Q1, parse_q
from .coeffs import (CONE, CZERO, accumulate, as_coeff, cdiv, cint, cmul,
                     cneg, cscale, den_lcm, inverse, is_czero, over_den,
                     scaled_parts, to_pair, to_text)
from .errors import (ContextMismatch, ModeMismatch, ParseError,
                     WeightOneComponent, WeightZeroComponent)

__all__ = [
    "TruncationWindow", "RingContext", "DiffPoly",
    "dx", "partial", "euler_D", "substitute", "serialize", "parse",
    "pretty", "parse_pretty",
]

SLOT = 16
MASK = (1 << SLOT) - 1
# bit offsets of the header slots above the genus, which is key & MASK
UDEG_AT, EPS_AT, HBAR_AT, PDEG_AT = SLOT, 2 * SLOT, 3 * SLOT, 4 * SLOT
HBAR = 2 | 1 << HBAR_AT
PDEG = 1 << PDEG_AT


def emin(*vals):
    """Minimum where None means unbounded."""
    got = [v for v in vals if v is not None]
    return min(got) if got else None


def _guard(a, b, lift):
    """Raise ValueError when a product of keys of a and b, raised by lift,
    could carry a slot into the next: the largest genus, u-degree and
    parameter degree of the two must sum to less than 2^16.  The slots of
    the OR of a dict's keys bound its largest values from above, so these
    are only sought when that bound fails."""
    wide = (reduce(or_, a), reduce(or_, b), lift)
    for at in (0, UDEG_AT, PDEG_AT):
        if sum(k >> at & MASK for k in wide) > MASK and (
                max(k >> at & MASK for k in a) + max(k >> at & MASK for k in b)
                + (lift >> at & MASK) > MASK):
            raise ValueError(f"a product overflows a {SLOT}-bit key slot")


def mul_sum(pairs, gc, uc):
    """The sum of a * b * hbar^h over the (a, b, h) in pairs, a and b term
    dicts, as (term dict, dropped).

    Only products of genus <= gc and u-degree <= uc are formed (None is
    unbounded); dropped is True when uc alone dropped a product.  Per pair,
    b's terms are grouped by genus once, and the classes are walked in
    ascending genus: a term of a with genus g stops at the first class
    above its room gc - 2 h - g, so a pair the genus cutoff drops costs
    nothing.  Within a class each term is checked against the u-degree
    room.  The sum is over one common denominator (see the module
    docstring): a real or imaginary part of a times one of b adds one
    integer product to the real or imaginary sum of its key.
    """
    live = []
    den = 1
    for a, b, h in pairs:
        if a and b:
            da, db = den_lcm(a), den_lcm(b)
            live.append((a, b, h, db))
            den = lcm(den, da * db)
    sums = ({}, {})  # the real and the imaginary numerator of each key
    dropped = False
    for a, b, h, db in live:
        lift = h * HBAR
        _guard(a, b, lift)
        groom_max = inf if gc is None else gc - 2 * h
        uroom_max = inf if uc is None else uc
        parts = ({}, {})  # b's genus classes, of its real and imaginary parts
        for k, n, p in scaled_parts(b, db):
            parts[p].setdefault(k & MASK, []).append(
                (k >> UDEG_AT & MASK, k + lift, n))
        parts = [(p, sorted(c.items())) for p, c in enumerate(parts) if c]
        for k1, n1, p1 in scaled_parts(a, den // db):
            groom = groom_max - (k1 & MASK)
            uroom = uroom_max - (k1 >> UDEG_AT & MASK)
            for p2, classes in parts:
                # n1 i^p1 * n2 i^p2, and i^2 = -1
                dst = sums[(p1 + p2) & 1]
                get = dst.get
                n = -n1 if p1 & p2 else n1
                for g2, rows in classes:
                    if g2 > groom:
                        break
                    for u2, k2, n2 in rows:
                        if u2 > uroom:
                            dropped = True
                            continue
                        k = k1 + k2
                        dst[k] = get(k, 0) + n * n2
    return over_den(*sums, den), dropped


def product_sum(ring, pairs, c):
    """The polynomial of mul_sum(pairs) under ring's window: it claims c,
    capped at the u-degree cutoff when that cutoff dropped a product."""
    window = ring.window
    uc = window.u_degree_cutoff
    terms, dropped = mul_sum(pairs, window.genus_cutoff, uc)
    return DiffPoly(ring, terms, emin(c, uc) if dropped else c)


def accumulate_cut(acc, terms, c, room):
    """acc += c * (the terms of genus <= room), term dicts, in place."""
    for key, v in terms.items():
        if key & MASK <= room:
            accumulate(acc, key, v, c)


def floor_u(p, least=0, room=inf):
    """The floor of p over its terms of u-degree >= least and genus <= room
    (see the module docstring): the least u-degree its true value can have
    there, inf when it can have none.  The unknown part of a windowed p may
    hold any such term above its exact_u."""
    lo = min((d for k in p.terms if (d := k >> UDEG_AT & MASK) >= least
              and k & MASK <= room), default=inf)
    e = p.exact_u
    return lo if e is None else min(lo, max(e + 1, least))


def claim(p, q, bound=None, least=(0, 0), drop=0, room=inf):
    """The exact_u of a bilinear result of p and q, at most bound: one
    whose every term comes from a term of p of u-degree d1 >= least[0] and
    one of q of u-degree d2 >= least[1], of genus sum at most room, and has
    u-degree d1 + d2 - drop.  A product is the default.  bound is a claim
    already known, such as the u-degree cutoff when it dropped a visible
    product.

    The unknown part of p starts at u-degree max(e + 1, least[0]), so its
    share starts there plus q's floor_u less drop; likewise for q.  When
    neither operand is windowed the claim is bound, with no pass over their
    terms."""
    ep, eq = p.exact_u, q.exact_u
    if ep is None and eq is None:
        return bound
    lp, lq = least
    hp = inf if ep is None else max(ep + 1, lp)
    hq = inf if eq is None else max(eq + 1, lq)
    c = min(hp + floor_u(q, lq, room), hq + floor_u(p, lp, room)) - 1 - drop
    return bound if c == inf else emin(bound, c)


class TruncationWindow:
    """Hard truncation bounds for ring operations.  None means unbounded."""

    __slots__ = ("genus_cutoff", "u_degree_cutoff")

    def __init__(self, genus_cutoff=None, u_degree_cutoff=None):
        for v in (genus_cutoff, u_degree_cutoff):
            if v is not None and (type(v) is not int or v < 0):
                raise ValueError("cutoffs must be None or non-negative ints")
        self.genus_cutoff = genus_cutoff
        self.u_degree_cutoff = u_degree_cutoff

    def __eq__(self, other):
        return (isinstance(other, TruncationWindow)
                and self.genus_cutoff == other.genus_cutoff
                and self.u_degree_cutoff == other.u_degree_cutoff)

    def __repr__(self):
        return (f"TruncationWindow(genus_cutoff={self.genus_cutoff}, "
                f"u_degree_cutoff={self.u_degree_cutoff})")


def _coerce_eta(eta, n):
    if len(eta) != n or any(len(row) != n for row in eta):
        raise ValueError(f"eta must be an {n} x {n} matrix")
    rows = tuple(tuple(as_coeff(eta[i][j]) for j in range(n))
                 for i in range(n))
    for i in range(n):
        for j in range(n):
            if rows[i][j] != rows[j][i]:
                raise ValueError("eta must be symmetric")
    return tuple(rows)


class RingContext:
    """Shared, immutable description of the ring all polynomials live in."""

    def __init__(self, n_vars=1, eta=None, params=(), mode="classical",
                 window=None):
        if mode not in ("classical", "quantum"):
            raise ValueError("mode must be 'classical' or 'quantum'")
        if type(n_vars) is not int or n_vars < 1:
            raise ValueError("n_vars must be a positive int")
        self.n_vars = n_vars
        self.params = tuple(params)
        if len(set(self.params)) != len(self.params):
            raise ValueError("duplicate parameter names")
        for name in self.params:
            # pretty and parse_pretty read i, eps, hbar and the u-letter
            # names (_is_uvar) as themselves; serialize writes names as text
            if (not isinstance(name, str) or not name.isidentifier()
                    or name in ("i", "eps", "hbar")
                    or name[0] == "u" and _is_uvar(name[1:])):
                raise ValueError(f"{name!r} cannot name a parameter")
        self.mode = mode
        if eta is None:
            eta = [[1 if i == j else 0 for j in range(n_vars)]
                   for i in range(n_vars)]
        self.eta = _coerce_eta(eta, n_vars)
        self.eta_inv = inverse(self.eta)
        if self.eta_inv is None:
            raise ValueError("eta is not invertible")
        if window is None:
            window = TruncationWindow()
        elif not isinstance(window, TruncationWindow):
            raise TypeError(f"window is not a TruncationWindow: {window!r}")
        self.window = window
        # the key layout (see the module docstring): bit offsets of the
        # parameter slots and of the letter field
        self.param_at = {name: PDEG_AT + SLOT * (i + 1)
                         for i, name in enumerate(self.params)}
        # decode's order of the parameters: by name
        self._params_by_name = tuple(sorted(self.param_at.items()))
        self.letters_at = PDEG_AT + SLOT * (len(self.params) + 1)

    # -- compatibility ----------------------------------------------------

    def compatible(self, other):
        return self is other or (
            isinstance(other, RingContext)
            and self.n_vars == other.n_vars
            and self.params == other.params
            and self.mode == other.mode
            and self.eta == other.eta
            and self.window == other.window)

    def check(self, other):
        if not self.compatible(other):
            raise ContextMismatch("operands use different ring contexts")

    def __eq__(self, other):
        return self.compatible(other)

    # -- term keys --------------------------------------------------------

    def letter_at(self, alpha, k):
        """Bit offset of the slot of the letter u^alpha_k."""
        if not 1 <= alpha <= self.n_vars or not 0 <= k <= MASK:
            raise ValueError(f"no letter u^{alpha}_{k} in this ring")
        return self.letters_at + SLOT * (k * self.n_vars + alpha - 1)

    def encode(self, eps=0, hbar=0, params=(), factors=()):
        """The key of eps^eps hbar^hbar, the (name, exp) pairs params and
        the (alpha, k, pow) factors.  Raises ValueError for an undeclared
        parameter or letter, a negative value, and a derivative order,
        genus, u-degree or parameter degree of 2^16 or more."""
        exps = [e for _, e in params]
        pows = [p for _, _, p in factors]
        genus, udeg, pdeg = eps + 2 * hbar, sum(pows), sum(exps)
        if (min(eps, hbar, *exps, *pows, 0) < 0
                or max(genus, udeg, pdeg) > MASK):
            raise ValueError(f"a term slot would leave 0..{MASK}")
        key = (genus | udeg << UDEG_AT | eps << EPS_AT | hbar << HBAR_AT
               | pdeg << PDEG_AT)
        for name, e in params:
            if name not in self.param_at:
                raise ValueError(
                    f"parameter {name!r} not declared in this ring")
            key += e << self.param_at[name]
        for al, k, p in factors:
            key += p << self.letter_at(al, k)
        return key

    def letters(self, key):
        """(alpha, k, pow) for each letter of a key, in slot order: by k,
        then alpha."""
        out = []
        field = key >> self.letters_at
        while field:
            s = ((field & -field).bit_length() - 1) // SLOT
            pw = field >> SLOT * s & MASK
            field ^= pw << SLOT * s
            out.append((s % self.n_vars + 1, s // self.n_vars, pw))
        return out

    def decode(self, key):
        """The (eps, hbar, params, factors) tuple of a key, params sorted by
        name and factors by (alpha, k).  With one variable the slot order
        of letters is already that order."""
        params = tuple((name, key >> at & MASK)
                       for name, at in self._params_by_name
                       if key >> at & MASK)
        factors = self.letters(key)
        if self.n_vars > 1:
            factors.sort()
        return (key >> EPS_AT & MASK, key >> HBAR_AT & MASK, params,
                tuple(factors))

    def degree_of(self, key):
        """The degree of a key's term."""
        return (sum(k * p for _, k, p in self.letters(key)) - (key & MASK))

    def lift(self, f, params=()):
        """f times the monomial of the (name, exp) pairs params, in this
        ring, less the terms its window drops.  The claim is f's exact_u
        capped, as parse caps it, by the claim of each dropped term.  This
        ring extends f's: the same variables and mode, f's parameters
        first, so only the letter field of a key moves up."""
        src = f.ring
        if (src.n_vars, src.mode, src.params) != (
                self.n_vars, self.mode, self.params[:len(src.params)]):
            raise ContextMismatch("the ring does not extend the polynomial's")
        at, to = src.letters_at, self.letters_at
        low = (1 << at) - 1
        by = self.encode(params=params)
        out = {}
        claim = f.exact_u
        for key, v in f.terms.items():
            key = (key & low | key >> at << to) + by
            dropped, drop_claim = self._clip(key)
            if dropped:
                claim = emin(claim, drop_claim)
            else:
                out[key] = v
        return DiffPoly(self, out, claim)

    def split_params(self, key, names):
        """The exponents in key of the named parameters, as a list, and key
        without them."""
        exps = []
        for name in names:
            at = self.param_at[name]
            e = key >> at & MASK
            exps.append(e)
            key -= (e << at) + (e << PDEG_AT)
        return exps, key

    def _clip(self, key):
        """Whether the window drops the term at key, and the exact_u that
        the drop leaves: the u-degree cutoff for a term within the genus
        cutoff, as mul_sum's dropped flag reports a product that cutoff
        drops; a genus drop claims nothing (None)."""
        gc, uc = self.window.genus_cutoff, self.window.u_degree_cutoff
        if gc is not None and key & MASK > gc:
            return True, None
        return uc is not None and key >> UDEG_AT & MASK > uc, uc

    def _term(self, key, val):
        """The polynomial val at key, or the zero the window leaves of it."""
        if is_czero(val):
            return self.zero()
        dropped, claim = self._clip(key)
        if dropped:
            return DiffPoly(self, {}, claim)
        return DiffPoly(self, {key: val})

    # -- construction -----------------------------------------------------

    def zero(self):
        return DiffPoly(self, {})

    def one(self):
        return DiffPoly(self, {0: CONE})

    def const(self, value):
        """Constant term.  value: a rational, an (re, im) pair of them or a
        coefficient triple (see coeffs.as_coeff).

        A constant carrying formal parameters is value times ring.param(...).
        """
        return self.monomial(value)

    def u(self, alpha=1, k=0, pow=1):
        if type(alpha) is not int or not 1 <= alpha <= self.n_vars:
            raise ValueError(f"variable index {alpha!r} out of range")
        if type(k) is not int or type(pow) is not int or k < 0 or pow < 1:
            raise ValueError("bad derivative order or power")
        return self._term(self.encode(factors=((alpha, k, pow),)), CONE)

    def param(self, name):
        return DiffPoly(self, {self.encode(params=((name, 1),)): CONE})

    def monomial(self, coeff, eps=0, hbar=0, factors=(), params=()):
        """coeff times eps^eps hbar^hbar, the parameter monomial params (a
        sorted tuple of (name, exponent)) and the u-factors (alpha, k, pow).

        coeff is a rational, an (re, im) pair of them or a coefficient
        triple (see coeffs.as_coeff); anything else raises TypeError.  The
        exponents and factor entries are ints, as parse requires: a bool
        raises ValueError, and so does a slot of 2^16 or more (see encode).
        A term outside the window gives a zero that claims what the drop
        leaves (see _clip).
        """
        val = as_coeff(coeff)
        if hbar and self.mode == "classical":
            raise ModeMismatch("hbar term in a classical ring")
        if any(type(x) is not int or x < 0 for x in (eps, hbar)):
            raise ValueError("eps and hbar exponents must be non-negative ints")
        for name, exp in params:
            if type(exp) is not int or exp < 1:
                raise ValueError(f"bad parameter exponent {exp!r}")
        seen = set()
        for al, k, p in factors:
            if (any(type(x) is not int for x in (al, k, p))
                    or not 1 <= al <= self.n_vars or k < 0 or p < 1):
                raise ValueError(f"bad factor {(al, k, p)}")
            if (al, k) in seen:
                raise ValueError(f"duplicate factor variable {(al, k)}")
            seen.add((al, k))
        return self._term(self.encode(eps, hbar, params, factors), val)

    def eta_pair(self, i, j):
        """The coefficient eta_{ij}, for 1-based i and j."""
        return self.eta[i - 1][j - 1]

    def eta_inv_pair(self, i, j):
        """The coefficient eta^{ij} of the inverse pairing, for 1-based i
        and j."""
        return self.eta_inv[i - 1][j - 1]


class DiffPoly:
    """Immutable differential polynomial.

    exact_u: the u-degree through which the value is known to be exact, or
    None when exact at every degree.  Ring operations propagate it.

    What is derived from a polynomial alone is kept on it, since it is
    never changed, each slot unset until the one function that fills it
    first runs:
        _dx       dx of it, by dx_pow
        _cuts     {g: its terms of genus <= g}, by genus_cut
        _reduced  its reduced density, by functionals.reduce_density
        _vd       {alpha: its variational derivative}, by functionals.var_deriv
        _flow     the standard operator's flow rows, by brackets.poisson_local
        _tower    the star's multiset-derivative tower, by
                  brackets._multiset_derivs
    """

    __slots__ = ("ring", "terms", "exact_u", "_dx", "_cuts", "_reduced",
                 "_vd", "_flow", "_tower")

    def __init__(self, ring, terms, exact_u=None):
        self.ring = ring
        self.terms = terms
        self.exact_u = exact_u

    # -- inspection -------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def monomials(self):
        """Yield (key, coefficient) per term, the key decoded to (eps, hbar,
        params, factors)."""
        decode = self.ring.decode
        for key, v in self.terms.items():
            yield decode(key), v

    def val_u(self):
        """Minimal u-degree over the support (0 for the zero polynomial)."""
        return min((k >> UDEG_AT & MASK for k in self.terms), default=0)

    def udeg_max(self):
        return max((k >> UDEG_AT & MASK for k in self.terms), default=0)

    def genera(self):
        """(least, greatest) genus of the terms, in one pass; None for 0."""
        gs = [k & MASK for k in self.terms]
        return (min(gs), max(gs)) if gs else None

    def is_constant(self):
        """Whether no term carries a letter."""
        return not any(k >> UDEG_AT & MASK for k in self.terms)

    def xorder_max(self):
        field = reduce(or_, self.terms, 0) >> self.ring.letters_at
        return max(field.bit_length() - 1, 0) // SLOT // self.ring.n_vars

    def support_vars(self):
        """The letters (alpha, k) that occur in some term."""
        return {(al, k) for al, k, _
                in self.ring.letters(reduce(or_, self.terms, 0))}

    def degree(self):
        """Degree of a homogeneous polynomial (None for zero)."""
        degs = {self.ring.degree_of(k) for k in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("polynomial is not degree-homogeneous")
        return degs.pop()

    def top_degree(self):
        if not self.terms:
            return None
        return max(self.ring.degree_of(k) for k in self.terms)

    def constant_part(self):
        """Terms with no u-factors (any eps/hbar/params)."""
        return self._where(lambda k: not k >> UDEG_AT & MASK)

    def without_constants(self):
        return self._where(lambda k: k >> UDEG_AT & MASK)

    def coefficient_of(self, eps=0, hbar=0, factors=(), params=()):
        """The coefficient of one term as an (re, im) pair of rationals."""
        key = self.ring.encode(eps, hbar, params, factors)
        return to_pair(self.terms.get(key, CZERO))

    # -- selections -------------------------------------------------------

    def _where(self, keep):
        """The terms whose keys pass keep, with the same exact_u."""
        return DiffPoly(self.ring,
                        {k: v for k, v in self.terms.items() if keep(k)},
                        self.exact_u)

    def eps_zero(self):
        return self._where(lambda k: not k >> EPS_AT & MASK)

    def hbar_zero(self):
        return self._where(lambda k: not k >> HBAR_AT & MASK)

    def divide_hbar(self):
        out = {}
        for k, v in self.terms.items():
            if not k >> HBAR_AT & MASK:
                raise ValueError("polynomial is not divisible by hbar")
            out[k - HBAR] = v
        return DiffPoly(self.ring, out, self.exact_u)

    def eps_cut(self, order):
        """Terms of eps power <= order."""
        return self._where(lambda k: k >> EPS_AT & MASK <= order)

    def genus_cut(self, g):
        """Terms of genus <= g, self when no term lies above g; each cut is
        kept on self (_cuts), keyed by g."""
        cuts = getattr(self, "_cuts", None)
        if cuts is None:
            cuts = self._cuts = {}
        cut = cuts.get(g)
        if cut is None:
            terms = {k: v for k, v in self.terms.items() if k & MASK <= g}
            cut = cuts[g] = (self if len(terms) == len(self.terms)
                             else DiffPoly(self.ring, terms, self.exact_u))
        return cut

    def genus_part(self, g):
        """Terms with eps_pow + 2*hbar_pow == g."""
        return self._where(lambda k: k & MASK == g)

    def weight_part(self, w):
        """Terms of D-weight w, the genus plus the u-degree."""
        return self._where(lambda k: (k & MASK) + (k >> UDEG_AT & MASK) == w)

    def truncate_u(self, d):
        out = self._where(lambda k: k >> UDEG_AT & MASK <= d)
        return out.with_exact_u(emin(self.exact_u, d))

    def within_window(self):
        """Restriction to the reliable part: u-degrees above exact_u dropped."""
        if self.exact_u is None:
            return self
        return self.truncate_u(self.exact_u)

    def with_exact_u(self, e):
        return DiffPoly(self.ring, self.terms, e)

    # -- arithmetic -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, DiffPoly):
            return NotImplemented
        self.ring.check(other.ring)
        return self.terms == other.terms

    __hash__ = None

    def __add__(self, other):
        if not isinstance(other, DiffPoly):
            other = _scalar_to_poly(self.ring, other)
            if other is NotImplemented:
                return NotImplemented
        self.ring.check(other.ring)
        if not other.terms:
            return DiffPoly(self.ring, self.terms,
                            emin(self.exact_u, other.exact_u))
        out = dict(self.terms)
        for k, v in other.terms.items():
            accumulate(out, k, v)
        return DiffPoly(self.ring, out, emin(self.exact_u, other.exact_u))

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, DiffPoly):
            other = _scalar_to_poly(self.ring, other)
            if other is NotImplemented:
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _scalar_to_poly(self.ring, other)
        if other is NotImplemented:
            return NotImplemented
        return -self + other

    def __neg__(self):
        return DiffPoly(self.ring, {k: cneg(v) for k, v in self.terms.items()},
                        self.exact_u)

    def __mul__(self, other):
        if not isinstance(other, DiffPoly):
            return self.scale(other)
        self.ring.check(other.ring)
        return product_sum(self.ring, [(self.terms, other.terms, 0)],
                           claim(self, other))

    def scale(self, c):
        """Multiply by a scalar: a rational, an (re, im) pair of them or a
        coefficient triple.

        Any other c gives NotImplemented, so `*` raises TypeError for it.  To
        multiply by a formal parameter, multiply by ring.param(name).
        """
        try:
            val = as_coeff(c)
        except TypeError:
            return NotImplemented
        if is_czero(val):
            return DiffPoly(self.ring, {}, self.exact_u)
        return DiffPoly(self.ring,
                        {k: cmul(v, val) for k, v in self.terms.items()},
                        self.exact_u)

    __rmul__ = __mul__

    def __truediv__(self, c):
        return self.scale(cdiv(CONE, as_coeff(c)))

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("powers must be non-negative ints")
        out = self.ring.one()
        for _ in range(n):
            out = out * self
        return out

    def __repr__(self):
        s = pretty(self)
        return f"<DiffPoly {s if len(s) <= 60 else s[:57] + '...'}>"


def weighted_sum(ring, weight, vec):
    """sum_b weight(b) * vec[b], skipping zero weights, summed with + so
    that each term keeps its claim."""
    acc = ring.zero()
    for b, p in vec.items():
        c = weight(b)
        if not is_czero(c):
            acc = acc + p.scale(c)
    return acc


def _scalar_to_poly(ring, value):
    if isinstance(value, Rational):
        return ring.const(value)
    return NotImplemented


# ---------------------------------------------------------------------------
# derivations


def dx(f):
    """Total x-derivative: sum_k u^alpha_{k+1} d/du^alpha_k."""
    ring = f.ring
    base = ring.letters_at
    span = (1 << SLOT * ring.n_vars) - 1  # shifted: -u^alpha_k + u^alpha_{k+1}
    out = {}
    for key, v in f.terms.items():
        field = key >> base
        while field:
            at = ((field & -field).bit_length() - 1) // SLOT * SLOT
            pw = field >> at & MASK
            field ^= pw << at
            accumulate(out, key + (span << base + at), v,
                       None if pw == 1 else cint(pw))
    return DiffPoly(ring, out, f.exact_u)


def dx_pow(f, n):
    """dx^n f.  Each step is kept on the polynomial it differentiates
    (DiffPoly._dx), so no polynomial is differentiated twice."""
    for _ in range(n):
        d = getattr(f, "_dx", None)
        if d is None:
            d = f._dx = dx(f)
        f = d
    return f


def peel(f):
    """Split f as dx(m) + r + c with r reduced and c the constant part.

    Returns (m, r, c) as DiffPolys.  r contains no term whose top letter is
    a first-or-higher derivative occurring to the first power, and no
    constants; such terms are exactly the ones a total derivative can have
    as its leading term.

    Terms are taken largest first from a heap, in the integer order of
    their keys.  Letter slots run by derivative order, then variable, so
    the letter fields compare in the peel's order, descending by letters,
    and a key's top letter is its highest nonzero slot; keys that tie there
    differ only in eps, hbar or params, which peeling keeps.

    Peeling a term t subtracts dx of t with its top letter lowered; every
    other term of that derivative has a strictly smaller top letter than t,
    and the one that raises the lowered letter back is t itself, which
    cancels exactly.  So the largest remaining term never grows, each key
    is pushed when it enters the work dict, and a popped key that has
    cancelled since is skipped.  Each step costs a heap operation, not a
    scan of what remains.
    """
    ring = f.ring
    base = ring.letters_at
    step = SLOT * ring.n_vars  # from u^alpha_k to u^alpha_{k+1}
    span = (1 << step) - 1     # shifted: -u^alpha_k + u^alpha_{k+1}
    work = dict(f.terms)
    heap = [-key for key in work]
    heapify(heap)
    pre = {}
    residue = {}
    const = {}

    while heap:
        key = -heappop(heap)
        val = work.pop(key, None)
        if val is None:
            continue
        field = key >> base
        if not field:
            const[key] = val
            continue
        top = (field.bit_length() - 1) // SLOT * SLOT
        low = top - step
        # t is the leading term of dx(M) only when M = t with its top letter
        # lowered still has that lowered letter on top: the top letter is a
        # derivative, to the first power, and no other letter lies above the
        # lowered one
        if low < 0 or field >> low + SLOT != 1 << step - SLOT:
            residue[key] = val
            continue
        mkey = key - (span << base + low)
        mult = mkey >> base + low & MASK
        mval = val if mult == 1 else cscale(val, 1, mult)
        accumulate(pre, mkey, mval)
        # subtract dx of the candidate monomial term by term, but for the
        # lowered letter's term, which is t
        rest = field - (1 << top) - ((mult - 1) << low)
        while rest:
            at = ((rest & -rest).bit_length() - 1) // SLOT * SLOT
            pw = rest >> at & MASK
            rest ^= pw << at
            rkey = mkey + (span << base + at)
            rval = cneg(mval if pw == 1 else cscale(mval, pw))
            if rkey not in work:
                heappush(heap, -rkey)
            accumulate(work, rkey, rval)
    return (DiffPoly(ring, pre, f.exact_u),
            DiffPoly(ring, residue, f.exact_u),
            DiffPoly(ring, const, f.exact_u))


def partial(f, alpha, k):
    """Partial derivative with respect to the variable u^alpha_k."""
    at = f.ring.letter_at(alpha, k)
    out = {}
    for key, v in f.terms.items():
        pw = key >> at & MASK
        if pw:
            out[key - (1 << UDEG_AT | 1 << at)] = (v if pw == 1
                                                   else cscale(v, pw))
    e = f.exact_u
    return DiffPoly(f.ring, out, None if e is None else e - 1)


def euler_D(f):
    """Weight operator: eps d/deps + 2 hbar d/dhbar + sum u^alpha_k d/du^alpha_k.

    Acts term-wise as multiplication by the D-weight, the genus plus the
    u-degree.  On classical rings the hbar part is vacuous since no term
    carries hbar.
    """
    out = {}
    for key, v in f.terms.items():
        w = (key & MASK) + (key >> UDEG_AT & MASK)
        if w:
            out[key] = cscale(v, w)
    return DiffPoly(f.ring, out, f.exact_u)


def d_weight_inverse(f, shift=0):
    """Divide each term by (D-weight - shift); raises on weight == shift."""
    out = {}
    for key, v in f.terms.items():
        w = (key & MASK) + (key >> UDEG_AT & MASK) - shift
        if w == 0:
            if shift == 1:
                raise WeightOneComponent(
                    "monomial of D-weight one cannot be inverted")
            raise WeightZeroComponent(
                "constant (weight zero) monomial cannot be inverted")
        out[key] = cscale(v, 1, w)
    return DiffPoly(f.ring, out, f.exact_u)


def substitute(f, images):
    """Simultaneous substitution u^alpha_k -> dx^k(images[alpha]).

    images: dict alpha -> DiffPoly, all in one common ring with the same
    number of variables as f's ring.  Missing alphas default to the identity
    image u^alpha of the target ring; an alpha outside 1..n_vars raises
    ValueError.
    """
    ring = f.ring
    for al in images:
        if type(al) is not int or not 1 <= al <= ring.n_vars:
            raise ValueError(f"variable index {al!r} out of range")
    target = next((g.ring for g in images.values()), ring)
    for g in images.values():
        target.check(g.ring)
    if target.n_vars != ring.n_vars:
        raise ContextMismatch("substitution target has a different variable count")
    images = {al: images[al] if al in images else target.u(al)
              for al in range(1, ring.n_vars + 1)}
    out = target.zero()
    img_exacts = [g.exact_u for g in images.values() if g.exact_u is not None]
    for (e, h, p, fac), v in f.monomials():
        if h and target.mode == "classical":
            raise ModeMismatch("hbar term substituted into a classical ring")
        acc = DiffPoly(target, {target.encode(e, h, p): v})
        for al, k, pw in fac:
            d = dx_pow(images[al], k)
            for _ in range(pw):
                acc = acc * d
        out = out + acc
    # A term of f above f.exact_u is unknown; it lands at u-degree at least
    # (f.exact_u + 1) v, v the least val_u of an image (1 for u^alpha).
    exact = f.exact_u
    if exact is not None:
        exact = (exact + 1) * min(g.val_u() for g in images.values()) - 1
    return out.with_exact_u(emin(exact, *img_exacts, out.exact_u))


# ---------------------------------------------------------------------------
# serialization


def serialize(f):
    """The JSON document of f: its ring's variables and parameters, and one
    entry per term, in the order of the decoded keys."""
    terms = []
    for (e, h, p, fac), v in sorted(f.monomials()):
        re, im = to_text(v)
        terms.append({
            "re": re,
            "im": im,
            "params": {name: exp for name, exp in p},
            "eps": e,
            "hbar": h,
            "factors": [list(x) for x in fac],
        })
    return {
        "ring": {"n_vars": f.ring.n_vars, "params": list(f.ring.params)},
        "terms": terms,
    }


def params_from_map(m, path=""):
    out = []
    for name, e in m.items():
        if not isinstance(name, str) or not name:
            raise ParseError(f"bad parameter name {name!r}", path)
        if type(e) is not int or e <= 0:
            raise ParseError(f"parameter exponent must be a positive int, got {e!r}",
                             path)
        out.append((name, e))
    return tuple(sorted(out))


def parse(doc, ring=None):
    """Parse a formula document.  Errors carry the JSON path of the problem.

    If ring is given, the document must be compatible with it, and terms
    outside its window are checked, then dropped as RingContext.monomial
    drops them; otherwise a fresh context is built from the document's ring
    header (mode is quantum exactly when some term carries hbar).
    """
    if not isinstance(doc, dict):
        raise ParseError("expected an object", "$")
    head = doc.get("ring")
    if not isinstance(head, dict):
        raise ParseError("missing or invalid 'ring' header", "$.ring")
    n_vars = head.get("n_vars")
    if type(n_vars) is not int or n_vars < 1:
        raise ParseError("n_vars must be a positive int", "$.ring.n_vars")
    pnames = head.get("params", [])
    if (not isinstance(pnames, list)
            or any(not isinstance(x, str) for x in pnames)):
        raise ParseError("params must be a list of strings", "$.ring.params")
    raw = doc.get("terms")
    if not isinstance(raw, list):
        raise ParseError("missing or invalid 'terms'", "$.terms")

    if ring is not None:
        if ring.n_vars != n_vars:
            raise ParseError(
                f"ring has {ring.n_vars} variables, document has {n_vars}",
                "$.ring.n_vars")
        for name in pnames:
            if name not in ring.params:
                raise ParseError(f"parameter {name!r} not declared in ring",
                                 "$.ring.params")

    any_hbar = any(isinstance(t, dict) and t.get("hbar", 0) for t in raw)
    if ring is None:
        try:
            ring = RingContext(n_vars=n_vars, params=tuple(pnames),
                               mode="quantum" if any_hbar else "classical")
        except ValueError as err:
            raise ParseError(str(err), "$.ring.params") from None
    elif any_hbar and ring.mode == "classical":
        raise ParseError("document carries hbar but ring is classical",
                         "$.terms")

    out = {}
    seen = set()
    claim = None
    for i, t in enumerate(raw):
        path = f"$.terms[{i}]"
        if not isinstance(t, dict):
            raise ParseError("term must be an object", path)
        re = parse_q(t.get("re", "0/1"), path + ".re")
        im = parse_q(t.get("im", "0/1"), path + ".im")
        if not re and not im:
            raise ParseError("zero coefficient not allowed in canonical form",
                             path)
        e = t.get("eps", 0)
        h = t.get("hbar", 0)
        if type(e) is not int or e < 0:
            raise ParseError("eps must be a non-negative int", path + ".eps")
        if type(h) is not int or h < 0:
            raise ParseError("hbar must be a non-negative int", path + ".hbar")
        pmap = t.get("params", {})
        if not isinstance(pmap, dict):
            raise ParseError("params must be an object", path + ".params")
        p = params_from_map(pmap, path + ".params")
        for name, _ in p:
            if name not in ring.params:
                raise ParseError(f"undeclared parameter {name!r}",
                                 path + ".params")
        rawfac = t.get("factors", [])
        if not isinstance(rawfac, list):
            raise ParseError("factors must be a list", path + ".factors")
        fac = []
        for j, x in enumerate(rawfac):
            fpath = f"{path}.factors[{j}]"
            if (not isinstance(x, list) or len(x) != 3
                    or any(type(y) is not int for y in x)):
                raise ParseError("factor must be [alpha, k, pow] of ints", fpath)
            al, k, pw = x
            if not 1 <= al <= n_vars:
                raise ParseError(f"variable index {al} out of range", fpath)
            if k < 0 or pw < 1:
                raise ParseError("bad derivative order or power", fpath)
            fac.append((al, k, pw))
        sfac = tuple(sorted(fac))
        if len({(a, k) for a, k, _ in sfac}) != len(sfac):
            raise ParseError("duplicate factor variable", path + ".factors")
        try:
            key = ring.encode(e, h, p, sfac)
        except ValueError as err:
            raise ParseError(str(err), path) from None
        if key in seen:
            raise ParseError("duplicate term key", path)
        seen.add(key)
        dropped, drop_claim = ring._clip(key)
        if dropped:
            claim = emin(claim, drop_claim)
        else:
            out[key] = as_coeff((re, im))
    return DiffPoly(ring, out, claim)


# ---------------------------------------------------------------------------
# pretty rendering and its inverse


def _pretty_ufactor(ring, al, k, pw):
    s = "u" if ring.n_vars == 1 else f"u{al}"
    if k:
        s += f"_{k}"
    if pw > 1:
        s += f"^{pw}"
    return s


def _pretty_term(ring, key, val):
    """(sign, body) of one term in the grammar of pretty."""
    e, h, p, fac = key
    re, im = to_pair(val)
    units = ["i"] if im and not re else []
    units += [name if exp == 1 else f"{name}^{exp}" for name, exp in p]
    if e:
        units.append("eps" if e == 1 else f"eps^{e}")
    if h:
        units.append("hbar" if h == 1 else f"hbar^{h}")
    non_u = bool(units)
    units += [_pretty_ufactor(ring, al, k, pw) for al, k, pw in fac]
    if re and im:
        num = f"({re} {'+' if im > 0 else '-'} {abs(im)} i)"
        return "+", " ".join([num] + units)
    mag = abs(re or im)
    if not units:
        body = str(mag)
    elif mag == 1:
        body = " ".join(units)
    elif mag.numerator == 1 and not non_u:
        body = " ".join(units) + f"/{mag.denominator}"
    else:
        body = f"({mag}) " + " ".join(units)
    return ("-" if (re or im) < 0 else "+"), body


def pretty(f):
    """Deterministic human-readable rendering.  Grammar (round-trippable):

    poly   := "0" | ["-"] term ((" + " | " - ") term)*
    term   := mixed | [coeff " "] units ["/" int] | rat
    coeff  := "(" rat ")"
    mixed  := "(" rat (" + " | " - ") rat " i" ")" [" " units]
    units  := unit (" " unit)*
    unit   := "i" | name ["^" int] | "eps" ["^" int] | "hbar" ["^" int] | uvar
    uvar   := "u" [alpha] ["_" k] ["^" pow]     (alpha printed iff n_vars > 1)
    rat    := int | int "/" int

    A trailing "/q" divides the whole term and is only used when the
    coefficient is 1/q and the term is a plain u-monomial.
    """
    if not f.terms:
        return "0"
    parts = []
    for key, val in sorted(f.monomials()):
        sign, body = _pretty_term(f.ring, key, val)
        if not parts:
            parts.append(("-" if sign == "-" else "") + body)
        else:
            parts.append(("- " if sign == "-" else "+ ") + body)
    return " ".join(parts)


def _lex_terms(text):
    """Split a pretty string into (sign, body) chunks, paren-aware."""
    chunks = []
    depth = 0
    cur = []
    sign = "+"
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if depth == 0 and ch in "+-" and i + 1 < len(text) and text[i + 1] == " " \
                and i > 0 and text[i - 1] == " ":
            chunks.append((sign, "".join(cur).strip()))
            sign = ch
            cur = []
            i += 2
            continue
        cur.append(ch)
        i += 1
    chunks.append((sign, "".join(cur).strip()))
    return chunks


def _is_uvar(rest):
    """Accept the tail of a u token: '', 'N', '_k', or 'N_k'."""
    if rest == "":
        return True
    astr, sep, kstr = rest.partition("_")
    if sep and not kstr.isdecimal():
        return False
    return astr == "" or astr.isdecimal()


def _parse_rat(tok, path):
    try:
        if "/" in tok:
            n, d = tok.split("/")
            return Q(int(n), int(d))
        return Q(int(tok))
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad rational {tok!r}", path) from None


def _parse_count(digits, tok, path):
    """The positive int of an exponent or a trailing "/q" in tok."""
    if not digits.isdecimal() or not int(digits):
        raise ParseError(f"bad power or divisor in {tok!r}", path)
    return int(digits)


def parse_pretty(text, ring):
    """Inverse of pretty for the documented grammar.  Malformed text
    raises ParseError, with path term[i] for the term that fails."""
    text = text.strip()
    if text == "0":
        return ring.zero()
    total = ring.zero()
    for tno, (sign, body) in enumerate(_lex_terms(text)):
        path = f"term[{tno}]"
        if not body:
            raise ParseError("empty term", path)
        neg = sign == "-"
        if body.startswith("-"):
            neg = not neg
            body = body[1:].strip()
        re, im = Q1, Q0
        if body.startswith("("):
            close = body.find(")")
            if close < 0:
                raise ParseError("unclosed parenthesis", path)
            inner = body[1:close].strip()
            body = body[close + 1:].strip()
            if inner.endswith(" i"):
                # mixed complex: "a + b i" / "a - b i"
                core = inner[:-2].strip()
                for op in (" + ", " - "):
                    if op in core:
                        a, _, b = core.partition(op)
                        re = _parse_rat(a.strip(), path)
                        im = _parse_rat(b.strip(), path)
                        if op == " - ":
                            im = -im
                        break
                else:
                    raise ParseError(f"bad complex coefficient ({inner})", path)
            else:
                re = _parse_rat(inner, path)
        scale, denom, units = Q1, Q1, 0
        eps = hbar = 0
        params = {}
        fac = {}
        for tok in body.split():
            if tok == "i":
                units += 1
                continue
            # a trailing "/q" divides the term: u^2/2 or u_2/24
            word, slash, dstr = tok.rpartition("/")
            if slash:
                denom *= _parse_count(dstr, tok, path)
            else:
                word = dstr
            base, caret, exp = word.partition("^")
            n = _parse_count(exp, tok, path) if caret else 1
            if base == "eps":
                eps += n
            elif base == "hbar":
                hbar += n
            elif base.startswith("u") and _is_uvar(base[1:]):
                astr, _, kstr = base[1:].partition("_")
                key = (int(astr) if astr else 1, int(kstr) if kstr else 0)
                fac[key] = fac.get(key, 0) + n
            elif base in ring.params:
                params[base] = params.get(base, 0) + n
            else:
                # bare rational token (constant term)
                try:
                    scale *= _parse_rat(word, path)
                except ParseError:
                    raise ParseError(f"unknown token {tok!r}", path) from None
        val = (re * scale / denom, im * scale / denom)
        for _ in range(units % 4):  # each "i" multiplies the coefficient
            val = (-val[1], val[0])
        if neg:
            val = (-val[0], -val[1])
        try:
            total = total + ring.monomial(
                val, eps=eps, hbar=hbar,
                factors=tuple((a, k, p) for (a, k), p in sorted(fac.items())),
                params=tuple(sorted(params.items())))
        except (ValueError, ModeMismatch) as err:
            raise ParseError(str(err), path) from None
    return total
