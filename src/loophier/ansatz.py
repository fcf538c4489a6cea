"""Graded ansatz spaces for recursion-compatible Hamiltonian densities.

For a fixed genus the space of admissible density corrections is finite
dimensional: a span of jet monomials weighted by the epsilon and hbar
sectors the grading allows.  This module enumerates that span, attaches an
unknown coefficient to every monomial, runs the operator recursion and the
variational shape condition symbolically, and reduces the collected
constraints to an exact affine family.

The unknowns ride along in two formal ring parameters, so a term key is as
wide for 900 unknowns as for one: _c counts the unknowns a term carries
and _j holds their index, unknown j being the monomial _c _j^j.  Because
every basis monomial sits at the target genus, a product of two unknowns
lands at twice the target genus and the truncation window discards it, so
the constraints stay linear by construction; the solver asserts this
rather than assuming it.
"""

import itertools

from .coeffs import (CONE, CZERO, accumulate, as_coeff, cadd, cmul, cneg,
                     csub, echelon_add, is_czero, to_pair)
from .errors import Inconsistent
from .functionals import (LocalFunctional, reduce_density, split_exact,
                          var_deriv)
from .recursion import flow_bracket, recursion_step, seed_density
from .ring import DiffPoly, RingContext, TruncationWindow, serialize

__all__ = ["monomial_basis", "AnsatzProblem", "AnsatzSolution",
           "solve_dr_type"]


def monomial_basis(ring, genus, diff_degree_bound):
    """Independent density monomials for one genus slice.

    Enumerates products of jet variables in every epsilon/hbar sector of
    the given genus and keeps one representative per integration-by-parts
    class.  A classical ring pins the total derivative order to twice the
    genus (the degree-zero condition); a quantum ring admits every order
    up to that, the deficit carried by hbar.  Total derivatives and
    combinations dependent on earlier picks are dropped, with preference
    given to representatives of low top derivative order.
    """
    if genus < 0:
        raise ValueError("genus must be non-negative")
    if diff_degree_bound < 1:
        raise ValueError("diff_degree_bound must be positive")
    if ring.mode == "classical":
        sectors, orders = [(2 * genus, 0)], [2 * genus]
    else:
        sectors = [(2 * j, genus - j) for j in range(genus, -1, -1)]
        orders = range(2 * genus, -1, -1)
    alphabet = [(al, k) for k in range(2 * genus + 1)
                for al in range(1, ring.n_vars + 1)]
    # every letter product, by its total derivative order
    batches = {s: [] for s in orders}
    for m in range(1, diff_degree_bound + 1):
        for combo in itertools.combinations_with_replacement(alphabet, m):
            batch = batches.get(sum(k for _, k in combo))
            if batch is not None:
                batch.append(tuple(sorted(
                    (al, k, len(list(run)))
                    for (al, k), run in itertools.groupby(combo))))
    for batch in batches.values():
        batch.sort(key=lambda fac: (len(fac) and max(k for _, k, _ in fac),
                                    len(fac), fac))
    kept = []
    pivots = {}
    for e, h in sectors:
        for s in orders:
            for factors in batches[s]:
                mono = ring.monomial(CONE, eps=e, hbar=h, factors=factors)
                if mono.is_zero():
                    continue
                if echelon_add(pivots, _fingerprint(mono)) is not None:
                    kept.append(mono)
    return kept


def _fingerprint(poly):
    """Reduced density of a density, as a sparse map.

    The peel residue is linear and vanishes exactly on Im(dx) + constants,
    so it decides linear dependence of functionals.
    """
    return reduce_density(poly).terms


class AnsatzProblem:
    """One genus slice to solve for, on top of a trusted lower-genus part.

    known_part is a density whose slices through genus - 1 already satisfy
    the recursion; the solver looks for the corrections at the stated
    genus.  d_check sets how many recursion levels are imposed.
    """

    def __init__(self, ring, known_part, genus, d_check=3,
                 diff_degree_bound=None):
        if genus < 0:
            raise ValueError("genus must be non-negative")
        if d_check < 1:
            raise ValueError("d_check must be at least 1")
        if known_part is None:
            known_part = ring.zero()
        ring.check(known_part.ring)
        if diff_degree_bound is None:
            diff_degree_bound = max(genus + 1, 3)
        self.ring = ring
        self.known_part = known_part
        self.genus = genus
        self.d_check = d_check
        self.diff_degree_bound = diff_degree_bound
        self.basis = monomial_basis(ring, genus, diff_degree_bound)


class _LinearSystem:
    """Sparse exact linear system in the unknown ansatz coefficients.

    Rows are harvested from residual polynomials of a ring with the
    parameters _c and _j (see solve_dr_type): every monomial gives one
    equation, keyed by the term without them (RingContext.split_params).
    The _c exponent says how many unknowns a term carries: none puts its
    value on the right-hand side, one puts it in the column the _j exponent
    names.  At degree one that exponent is the one unknown's index; at
    degree two it is a sum of two indices, which many pairs share, and
    such a term raises AssertionError, as the genus window is meant to
    leave none.
    """

    def __init__(self):
        self.rows = {}

    def take(self, tag, poly):
        split = poly.ring.split_params
        for key, v in poly.terms.items():
            (degree, j), rest = split(key, ("_c", "_j"))
            if degree > 1:
                raise AssertionError(
                    "unknown coefficients combined nonlinearly; the genus "
                    "window failed to separate them")
            row = self.rows.setdefault((tag, rest), [{}, CZERO])
            if degree:
                accumulate(row[0], j, v)
            else:
                row[1] = csub(row[1], v)


def _rref(rows, ncols):
    """Exact solve of sparse linear rows over Gaussian rational coefficients.

    rows yields (coeffs, rhs) with coeffs a map from columns 0..ncols-1;
    the right-hand side rides in column ncols, so a reduced row leading
    there is a contradiction.  Returns a particular solution (free columns
    zero) and a kernel basis, or raises Inconsistent when no solution
    exists.
    """
    pivots = {}
    for coeffs, rhs in rows:
        kept = echelon_add(pivots, {**coeffs, ncols: rhs})
        if kept is not None and kept[0] == ncols:
            raise Inconsistent(
                "constraints admit no solution: residual "
                f"{to_pair(kept[1])} with no free coefficient left")
    particular = [pivots[c].get(ncols, CZERO) if c in pivots else CZERO
                  for c in range(ncols)]
    kernel = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [CZERO] * ncols
        vec[free] = CONE
        for p, row in pivots.items():
            w = row.get(free)
            if w is not None:
                vec[p] = cneg(w)
        kernel.append(vec)
    return particular, kernel


def _combine(start, weights, vectors):
    """start plus the sum of weights times vectors, entrywise."""
    out = list(start)
    for t, vec in zip(weights, vectors):
        if not is_czero(t):
            out = [cadd(x, cmul(t, k)) for x, k in zip(out, vec)]
    return out


def _shape_rows(sys, cand, ring):
    """Rows from the variational shape of the level-one density.

    The first variational derivative must be half the pairing form plus a
    second derivative of a lower-weight density; quantum rings additionally
    admit a constant.  Both conditions reduce to exactness statements read
    off the canonical residue.
    """
    half = ring.zero()
    for alpha in range(1, ring.n_vars + 1):
        half = half + ring.u(alpha) * seed_density(ring, alpha)
    m, r, c = split_exact(var_deriv(cand, 1) - half / 2)
    sys.take(("shape", "residue"), r)
    if ring.mode == "classical":
        sys.take(("shape", "const"), c)
        m2, r2, c2 = split_exact(m)
        sys.take(("shape", "inner"), r2 + c2)


def _recursion_rows(sys, cand, problem, ring):
    """Rows from running the operator recursion on the candidate density.

    Each level's two obstructions (see recursion_step) must vanish; the
    level past d_check is only required to be exact.  Quantum rings also
    tie the level-one density back to the generator.
    """
    func = LocalFunctional(cand)
    level_one = None
    for alpha in range(1, ring.n_vars + 1):
        g = seed_density(ring, alpha)
        for p in range(problem.d_check + 1):
            g, not_exact, weight_one = recursion_step(g, func)
            sys.take(("flow", alpha, p), not_exact)
            sys.take(("weight", alpha, p), weight_one)
            if alpha == 1 and p == 1:
                level_one = g
        # no level follows, so only the peel is needed, not (D - 1)^-1
        _, r, c = split_exact(flow_bracket(g, func))
        sys.take(("flow", alpha, problem.d_check + 1), r + c)
    sys.take(("normalization",), reduce_density(level_one - cand))


def solve_dr_type(problem):
    """Solve the linear constraints cutting out one genus slice.

    Attaches a formal coefficient to every basis monomial, imposes the
    variational shape condition and, at positive genus, exactness of the
    operator recursion through the problem's depth, then reduces the
    system exactly.  Genus zero is determined by the shape condition
    alone.  Returns the affine family of solutions.

    The candidate density lives in a ring with two parameters beyond the
    problem's: it is the known part plus the sum over j of basis monomial
    j times _c _j^j, each lifted by RingContext.lift to keys no other term
    has, so the key width does not grow with the basis.  A problem ring
    that already declares _c or _j raises ValueError.  So does a basis of
    more than 2^16 - 1 monomials, as encode refuses the parameter degree
    1 + j of the last unknown; at positive genus the recursion multiplies
    candidate terms, and ring.mul_sum already refuses such a product when
    two indices may sum to 2^16 - 2 or more, from about 2^15 monomials on.
    """
    base = problem.ring
    g = problem.genus
    if {"_c", "_j"} & set(base.params):
        raise ValueError("the parameter names _c and _j are reserved for "
                         "the unknowns of the ansatz")
    window = TruncationWindow(genus_cutoff=2 * g)
    cring = RingContext(n_vars=base.n_vars, eta=base.eta,
                        params=base.params + ("_c", "_j"),
                        mode=base.mode, window=window)
    terms = dict(cring.lift(problem.known_part).terms)
    for j, mono in enumerate(problem.basis):
        terms.update(cring.lift(mono, (("_c", 1), ("_j", j))).terms)
    cand = DiffPoly(cring, terms)
    sys = _LinearSystem()
    _shape_rows(sys, cand, cring)
    if g > 0:
        _recursion_rows(sys, cand, problem, cring)
    particular, kernel = _rref(sys.rows.values(), len(problem.basis))
    return AnsatzSolution(problem, particular, kernel)


class AnsatzSolution:
    """Affine family of genus-slice densities satisfying the constraints.

    Points are particular + sum of parameter values times kernel
    directions, expressed in the coordinates of the problem's monomial
    basis.
    """

    def __init__(self, problem, particular, kernel):
        self.problem = problem
        self.basis = problem.basis
        self.particular = particular
        self.kernel = kernel

    def dimension(self):
        return len(self.kernel)

    def _values(self, values):
        out = [as_coeff(v) for v in values or ()]
        if len(out) > len(self.kernel):
            raise ValueError(
                f"{len(out)} parameter values for a "
                f"{len(self.kernel)}-dimensional family")
        out.extend([CZERO] * (len(self.kernel) - len(out)))
        return out

    def _point(self, weights):
        """Basis coordinates, as coefficients, of the family point with the
        given kernel weights."""
        return _combine(self.particular, weights, self.kernel)

    def coefficients(self, values=None):
        """Basis coordinates of the family point at the given parameters,
        as (re, im) pairs of rationals."""
        return [to_pair(c) for c in self._point(self._values(values))]

    def _span(self, coeffs):
        """Sum of coeffs times the basis monomials, in the base ring."""
        acc = self.problem.ring.zero()
        for coeff, mono in zip(coeffs, self.basis):
            if not is_czero(coeff):
                acc = acc + mono * coeff
        return acc

    def genus_part(self, values=None):
        """The genus-slice density at a family point, in the base ring."""
        return self._span(self._point(self._values(values)))

    def density(self, values=None):
        """Known lower-genus part plus the slice at a family point."""
        return self.problem.known_part + self.genus_part(values)

    def _direction(self, j):
        return self._span(self.kernel[j])

    def pin(self, mono, value):
        """Gauge-fix one basis coordinate to an exact value.

        The constraints are covariant under rescaling the formal dispersion
        parameter, so solution spaces carry gauge directions along with the
        essential ones; pinning the coefficient of a reference monomial
        (fixing a term of the basis point) selects a slice.  Returns the
        restricted family; raises Inconsistent when the value is
        unreachable.
        """
        if len(mono.terms) != 1:
            raise ValueError("pin expects a single monomial")
        ((key, unit),) = mono.terms.items()
        if not is_czero(csub(unit, CONE)):
            raise ValueError("pin expects a unit-coefficient monomial")
        idx = None
        for i, b in enumerate(self.basis):
            if key in b.terms:
                idx = i
                break
        if idx is None:
            raise ValueError("monomial is not a basis representative")
        row = ({j: vec[idx] for j, vec in enumerate(self.kernel)
                if not is_czero(vec[idx])},
               csub(as_coeff(value), self.particular[idx]))
        tpart, tkern = _rref([row], len(self.kernel))
        zero = [CZERO] * len(self.basis)
        return AnsatzSolution(self.problem, self._point(tpart),
                              [_combine(zero, w, self.kernel) for w in tkern])

    def contains(self, target):
        """Parameter values placing target in the family, as (re, im) pairs
        of rationals, or None.

        target is a genus-slice density in the problem's ring; comparison
        is as functionals, so representatives differing by total
        derivatives or constants still match.
        """
        self.problem.ring.check(target.ring)
        want = _fingerprint(target - self.genus_part())
        cols = [_fingerprint(self._direction(j))
                for j in range(len(self.kernel))]
        # one row per key of any fingerprint, which holds no zero value
        rows = {key: ({}, v) for key, v in want.items()}
        for j, f in enumerate(cols):
            for key, v in f.items():
                rows.setdefault(key, ({}, CZERO))[0][j] = v
        try:
            values, _ = _rref(rows.values(), len(self.kernel))
        except Inconsistent:
            return None
        return [to_pair(v) for v in values]

    def serialize(self):
        return {
            "genus": self.problem.genus,
            "d_check": self.problem.d_check,
            "dimension": self.dimension(),
            "basis_point": serialize(self.genus_part()),
            "kernel_generators": [serialize(self._direction(j))
                                  for j in range(len(self.kernel))],
        }
