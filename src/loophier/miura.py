"""Changes of loop-space coordinates and their action on Hamiltonian data.

A coordinate change is a tuple of differential polynomials utilde^alpha(u)
whose epsilon-free part is an invertible linear map.  Such changes form a
group; this module inverts them order by order in epsilon, conjugates
Hamiltonian operators, rewrites local functionals, and builds the
tau-preserving subfamily generated by a density of weight-minus-two type.
"""

from .coeffs import CZERO, inverse, is_czero
from .errors import LoopHierError, ModeMismatch, ParseError, SingularAtEpsilonZero
from .ring import EPS_AT, MASK, DiffPoly, dx, partial, substitute
from .ring import serialize as serialize_poly, parse as parse_poly
from .functionals import LocalFunctional
from .brackets import DiffOperator, HamiltonianOperator, poisson_local
from .recursion import flow_bracket

__all__ = [
    "MiuraMap", "push_operator", "push_functional",
    "normal_miura", "TransformedTau", "parse_miura",
]


def _eps_clip(f, order):
    """Drop terms beyond the given epsilon order."""
    kept = {k: v for k, v in f.terms.items() if k >> EPS_AT & MASK <= order}
    return DiffPoly(f.ring, kept, f.exact_u)


class MiuraMap:
    """An invertible polynomial change of the loop-space coordinates.

    images maps each variable index to its expression in the old
    coordinates.  Missing indices default to the identity.  The inverse is
    computed on demand and cached together with the epsilon order it is
    valid to.
    """

    __slots__ = ("ring", "images", "_inverse", "_inverse_order")

    def __init__(self, images, ring=None):
        if ring is None:
            for g in images.values():
                ring = g.ring
                break
        if ring is None:
            raise ValueError("empty image set needs an explicit ring")
        self.ring = ring
        full = {}
        for alpha in range(1, ring.n_vars + 1):
            g = images.get(alpha)
            if g is None:
                g = ring.u(alpha)
            else:
                ring.check(g.ring)
            full[alpha] = g
        self.images = full
        self._inverse = None
        self._inverse_order = None

    @classmethod
    def identity(cls, ring):
        return cls({}, ring=ring)

    def compose(self, inner):
        """The map applying inner first, then self."""
        self.ring.check(inner.ring)
        return MiuraMap({a: substitute(g, inner.images)
                         for a, g in self.images.items()})

    def __eq__(self, other):
        if not isinstance(other, MiuraMap):
            return NotImplemented
        self.ring.check(other.ring)
        return all((self.images[a] - other.images[a]).within_window().is_zero()
                   for a in self.images)

    __hash__ = None

    def _split(self):
        """Linear matrix of the epsilon-free part plus the perturbation.

        Every perturbation term must carry a positive epsilon power; that
        is what makes fixed-point inversion terminate.
        """
        ring = self.ring
        n = ring.n_vars
        mat = []
        pert = []
        for a in range(1, n + 1):
            row = []
            rest = self.images[a]
            for b in range(1, n + 1):
                # the coefficient of the term u^b, with no eps or hbar
                c = rest.terms.get(ring.encode(factors=((b, 0, 1),)), CZERO)
                row.append(c)
                if not is_czero(c):
                    rest = rest - ring.u(b).scale(c)
            for key in rest.terms:
                if not key >> EPS_AT & MASK:
                    raise SingularAtEpsilonZero(
                        "every term beyond the linear part must carry a "
                        "positive epsilon power for polynomial inversion")
            mat.append(row)
            pert.append(rest)
        return mat, pert

    def invert(self, eps_order):
        """The inverse map, exact through the requested epsilon order."""
        if eps_order < 0:
            raise ValueError("eps_order must be nonnegative")
        if self._inverse is not None and self._inverse_order >= eps_order:
            return self._inverse
        ring = self.ring
        n = ring.n_vars
        mat, pert = self._split()
        ninv = inverse(mat)
        if ninv is None:
            raise SingularAtEpsilonZero(
                "linear part of the coordinate change is singular")
        exact = all(p.is_zero() for p in pert)

        def lin(vec):
            out = {}
            for a in range(1, n + 1):
                acc = ring.zero()
                for b in range(1, n + 1):
                    c = ninv[a - 1][b - 1]
                    if not is_czero(c):
                        acc = acc + vec[b].scale(c)
                out[a] = acc
            return out

        cur = lin({b: ring.u(b) for b in range(1, n + 1)})
        if not exact:
            for _ in range(eps_order + 2):
                vec = {}
                for b in range(1, n + 1):
                    vec[b] = ring.u(b) - _eps_clip(
                        substitute(pert[b - 1], cur), eps_order)
                nxt = {a: _eps_clip(g, eps_order) for a, g in lin(vec).items()}
                if all((nxt[a] - cur[a]).is_zero() for a in nxt):
                    cur = nxt
                    break
                cur = nxt
            else:
                raise LoopHierError("coordinate inversion did not stabilize")
        for a in range(1, n + 1):
            check = _eps_clip(substitute(self.images[a], cur), eps_order)
            if not (check - ring.u(a)).within_window().is_zero():
                raise LoopHierError(
                    "inverse failed the substitution identity check")
        self._inverse = MiuraMap(cur, ring=ring)
        self._inverse_order = eps_order
        return self._inverse

    def serialize(self):
        doc = {"images": {str(a): serialize_poly(g)
                          for a, g in self.images.items()}}
        if self._inverse is not None:
            doc["inverse"] = {
                "eps_order": self._inverse_order,
                "images": {str(a): serialize_poly(g)
                           for a, g in self._inverse.images.items()},
            }
        return doc


def parse_miura(doc, ring=None):
    """Rebuild a coordinate change from its document form."""
    if not isinstance(doc, dict) or not isinstance(doc.get("images"), dict):
        raise ParseError("expected an object with an 'images' map", "$")
    images = {}
    for key, sub in doc["images"].items():
        try:
            alpha = int(key)
        except ValueError:
            raise ParseError(f"bad variable index {key!r}", "$.images")
        images[alpha] = parse_poly(sub, ring)
        if ring is None:
            ring = images[alpha].ring
    m = MiuraMap(images, ring=ring)
    inv = doc.get("inverse")
    if isinstance(inv, dict) and isinstance(inv.get("images"), dict):
        cached = {}
        for key, sub in inv["images"].items():
            try:
                alpha = int(key)
            except ValueError:
                raise ParseError(f"bad variable index {key!r}",
                                 "$.inverse.images") from None
            cached[alpha] = parse_poly(sub, ring)
        order = inv.get("eps_order", 0)
        if isinstance(order, bool) or not isinstance(order, int) or order < 0:
            raise ParseError(
                f"eps_order must be a non-negative int, got {order!r}",
                "$.inverse.eps_order")
        m._inverse = MiuraMap(cached, ring=ring)
        m._inverse_order = order
    return m


def _resolve_order(m, eps_order):
    """Pick the truncation order for pushforwards.

    Exact maps (linear, no perturbation) need none.  Perturbative maps on a
    windowed ring default to the genus cutoff; otherwise the caller must
    choose.
    """
    _, pert = m._split()
    if all(p.is_zero() for p in pert):
        return None
    if eps_order is not None:
        return eps_order
    gc = m.ring.window.genus_cutoff
    if gc is not None:
        return gc
    raise ValueError("pushforward through a perturbative map on an "
                     "unwindowed ring needs an explicit eps_order")


def push_operator(k, m, eps_order=None):
    """Conjugate a Hamiltonian operator by a coordinate change.

    The new entries are left leg . old entry . right leg, where the left
    leg collects the image's partials against powers of d_x and the right
    leg is its formal adjoint arrangement; coefficients are then rewritten
    in the new coordinates through the inverse map.
    """
    ring = m.ring
    ring.check(k.ring)
    order = _resolve_order(m, eps_order)
    inv = m.invert(order if order is not None else 0)
    n = ring.n_vars

    smax = {}
    for a, g in m.images.items():
        for al, s in g.support_vars():
            smax[(a, al)] = max(smax.get((a, al), 0), s)

    def left_leg(a, mu):
        coeffs = {}
        for s in range(smax.get((a, mu), 0) + 1):
            d = partial(m.images[a], mu, s)
            if not d.is_zero():
                coeffs[s] = d
        return DiffOperator(ring, coeffs)

    def right_leg(b, nu):
        out = DiffOperator(ring)
        for t in range(smax.get((b, nu), 0) + 1):
            d = partial(m.images[b], nu, t)
            if d.is_zero():
                continue
            lead = ring.one() if t % 2 == 0 else -ring.one()
            out = out + DiffOperator.dx_power(ring, t, lead).compose(
                DiffOperator(ring, {0: d}))
        return out

    entries = {}
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            acc = DiffOperator(ring)
            for mu in range(1, n + 1):
                for nu in range(1, n + 1):
                    mid = k.entry(mu, nu)
                    if mid.is_zero():
                        continue
                    acc = acc + left_leg(a, mu).compose(mid).compose(
                        right_leg(b, nu))
            if acc.is_zero():
                continue
            rewritten = {}
            for j, c in acc.coeffs.items():
                c = substitute(c, inv.images)
                if order is not None:
                    c = _eps_clip(c, order)
                if not c.is_zero():
                    rewritten[j] = c
            entries[(a, b)] = DiffOperator(ring, rewritten)
    return HamiltonianOperator(ring, entries)


def push_functional(h, m, eps_order=None):
    """Rewrite a local functional in the image coordinates."""
    density = h.density if isinstance(h, LocalFunctional) else h
    m.ring.check(density.ring)
    order = _resolve_order(m, eps_order)
    inv = m.invert(order if order is not None else 0)
    out = substitute(density, inv.images)
    if order is not None:
        out = _eps_clip(out, order)
    return LocalFunctional(out)


class TransformedTau:
    """Tau densities after a tau-preserving coordinate change.

    The Hamiltonians are untouched as functionals (the added piece is a
    total derivative), so the symmetry residual brackets the new densities
    against the original functionals.
    """

    __slots__ = ("hierarchy", "generator", "map", "_h")

    def __init__(self, hierarchy, generator, miura_map):
        self.hierarchy = hierarchy
        self.generator = generator
        self.map = miura_map
        self._h = {}

    def h(self, beta, q):
        """Transformed tau density at level (beta, q), defined for q >= -1."""
        key = (beta, q)
        if key not in self._h:
            hier = self.hierarchy
            shift = poisson_local(self.generator, hier.functional(beta, q + 1))
            self._h[key] = hier.tau_density(beta, q) + dx(shift)
        return self._h[key]

    def symmetry_residual(self, alpha, p, beta, q):
        """Bracket asymmetry of the transformed tau densities (zero when
        symmetric), as in Hierarchy.tau_symmetry_residual."""
        hier = self.hierarchy
        lhs = flow_bracket(self.h(alpha, p - 1), hier.functional(beta, q))
        rhs = flow_bracket(self.h(beta, q - 1), hier.functional(alpha, p))
        return (lhs - rhs).within_window()

    def normal_residual(self, beta):
        """The new coordinates are normal: eta_{beta nu} utilde^nu equals
        the level minus-one tau density h(beta, -1)."""
        ring = self.hierarchy.ring
        acc = ring.zero()
        for nu in range(1, ring.n_vars + 1):
            pair = ring.eta_pair(beta, nu)
            if not is_czero(pair):
                acc = acc + self.map.images[nu].scale(pair)
        return (self.h(beta, -1) - acc).within_window()


def normal_miura(generator, hierarchy):
    """Tau-preserving coordinate change generated by a density.

    New coordinate alpha is u^alpha plus eta^{alpha mu} d_x of the bracket
    of the generator with the level (mu, 0) functional; each tau density
    gains d_x of the bracket with the functional one level up.  Returns the
    map together with the transformed tau structure.
    """
    ring = hierarchy.ring
    if ring.mode != "classical":
        raise ModeMismatch("normal coordinate changes are classical-only")
    ring.check(generator.ring)
    for key in generator.terms:
        if ring.degree_of(key) != -2:
            raise ValueError("generator must be homogeneous of degree -2 "
                             "(epsilon power = derivative count + 2)")
    images = {}
    for alpha in range(1, ring.n_vars + 1):
        acc = ring.u(alpha)
        for mu in range(1, ring.n_vars + 1):
            pair = ring.eta_inv_pair(alpha, mu)
            if is_czero(pair):
                continue
            shift = poisson_local(generator, hierarchy.functional(mu, 0))
            acc = acc + dx(shift).scale(pair)
        images[alpha] = acc
    m = MiuraMap(images, ring=ring)
    return m, TransformedTau(hierarchy, generator, m)
