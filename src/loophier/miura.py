"""Changes of loop-space coordinates and their action on Hamiltonian data.

A coordinate change is a tuple of differential polynomials utilde^alpha(u)
whose epsilon-free part is an invertible linear map.  Such changes form a
group; this module inverts them order by order in epsilon, conjugates
Hamiltonian operators, rewrites local functionals, and builds the
tau-preserving subfamily generated by a density of weight-minus-two type.
"""

from .coeffs import CZERO, inverse, is_czero
from .errors import LoopHierError, ModeMismatch, ParseError, SingularAtEpsilonZero
from .ring import dx, substitute, weighted_sum
from .ring import serialize as serialize_poly, parse as parse_poly
from .functionals import LocalFunctional
from .brackets import (DiffOperator, HamiltonianOperator, jacobian,
                       poisson_local)

__all__ = [
    "MiuraMap", "push_operator", "push_functional",
    "normal_miura", "TransformedTau", "parse_miura",
]


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
            ring = next((g.ring for g in images.values()), None)
        if ring is None:
            raise ValueError("empty image set needs an explicit ring")
        self.ring = ring
        bad = set(images).difference(range(1, ring.n_vars + 1))
        if bad:
            raise ValueError(f"image indices {bad} lie outside "
                             f"1..{ring.n_vars}")
        for g in images.values():
            ring.check(g.ring)
        self.images = {alpha: images[alpha] if alpha in images
                       else ring.u(alpha)
                       for alpha in range(1, ring.n_vars + 1)}
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
            if rest.eps_zero().terms:
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
            return {a: weighted_sum(ring, lambda b: row[b - 1], vec)
                    for a, row in enumerate(ninv, 1)}

        cur = lin({b: ring.u(b) for b in range(1, n + 1)})
        if not exact:
            for _ in range(eps_order + 2):
                vec = {}
                for b in range(1, n + 1):
                    vec[b] = ring.u(b) - substitute(
                        pert[b - 1], cur).eps_cut(eps_order)
                nxt = {a: g.eps_cut(eps_order) for a, g in lin(vec).items()}
                if all((nxt[a] - cur[a]).is_zero() for a in nxt):
                    cur = nxt
                    break
                cur = nxt
            else:
                raise LoopHierError("coordinate inversion did not stabilize")
        if not self._inverts(cur, eps_order):
            raise LoopHierError(
                "inverse failed the substitution identity check")
        self._inverse = MiuraMap(cur, ring=ring)
        self._inverse_order = eps_order
        return self._inverse

    def _inverts(self, images, eps_order):
        """Whether images inverts self through eps_order: substituted into
        every image of self, they give the identity there."""
        return all(
            (substitute(g, images).eps_cut(eps_order) - self.ring.u(a))
            .within_window().is_zero() for a, g in self.images.items())

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


def _parse_images(images, ring, path):
    """Parse an images map {"alpha": formula document}; a key that is not
    a variable index of the ring raises ParseError at path."""
    out = {}
    for key, sub in images.items():
        try:
            alpha = int(key)
        except ValueError:
            raise ParseError(f"bad variable index {key!r}", path) from None
        out[alpha] = parse_poly(sub, ring)
        ring = out[alpha].ring
        if not 1 <= alpha <= ring.n_vars:
            raise ParseError(f"variable index {alpha} outside "
                             f"1..{ring.n_vars}", path)
    return out, ring


def parse_miura(doc, ring=None):
    """Rebuild a coordinate change from its document form; a cached
    inverse is kept only if it inverts the map (MiuraMap._inverts)."""
    if not isinstance(doc, dict) or not isinstance(doc.get("images"), dict):
        raise ParseError("expected an object with an 'images' map", "$")
    images, ring = _parse_images(doc["images"], ring, "$.images")
    m = MiuraMap(images, ring=ring)
    inv = doc.get("inverse")
    if isinstance(inv, dict) and isinstance(inv.get("images"), dict):
        cached, _ = _parse_images(inv["images"], ring, "$.inverse.images")
        order = inv.get("eps_order", 0)
        if isinstance(order, bool) or not isinstance(order, int) or order < 0:
            raise ParseError(
                f"eps_order must be a non-negative int, got {order!r}",
                "$.inverse.eps_order")
        cached = MiuraMap(cached, ring=ring)
        if not m._inverts(cached.images, order):
            raise ParseError("the cached inverse fails the substitution "
                             "identity", "$.inverse.images")
        m._inverse = cached
        m._inverse_order = order
    return m


def _rewriter(m, eps_order):
    """The pushforwards' rewrite of a polynomial in the new coordinates:
    substitute the inverse map, then cut to the truncation order.

    Exact maps (linear, no perturbation) need no cut.  Perturbative maps
    on a windowed ring default to the genus cutoff; otherwise the caller
    must choose.
    """
    _, pert = m._split()
    if all(p.is_zero() for p in pert):
        inv = m.invert(0)
        return lambda c: substitute(c, inv.images)
    order = eps_order
    if order is None:
        order = m.ring.window.genus_cutoff
        if order is None:
            raise ValueError("pushforward through a perturbative map on an "
                             "unwindowed ring needs an explicit eps_order")
    inv = m.invert(order)
    return lambda c: substitute(c, inv.images).eps_cut(order)


def push_operator(k, m, eps_order=None):
    """Conjugate a Hamiltonian operator by a coordinate change.

    The pushed operator is J K J-dagger, with J = jacobian(m.images) the
    Frechet derivative of the new coordinates and J-dagger its formal
    adjoint; its coefficients are then rewritten in the new coordinates
    through the inverse map.
    """
    ring = m.ring
    ring.check(k.ring)
    rewrite = _rewriter(m, eps_order)
    J = jacobian(m.images)
    return HamiltonianOperator(ring, {
        key: DiffOperator(ring, {j: rewrite(c) for j, c in op.coeffs.items()})
        for key, op in J.compose(k).compose(J.adjoint()).entries.items()})


def push_functional(h, m, eps_order=None):
    """Rewrite a local functional in the image coordinates."""
    density = h.density if isinstance(h, LocalFunctional) else h
    m.ring.check(density.ring)
    return LocalFunctional(_rewriter(m, eps_order)(density))


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
        return self.hierarchy.tau_symmetry_residual(alpha, p, beta, q,
                                                    h=self.h)

    def normal_residual(self, beta):
        """The new coordinates are normal: eta_{beta nu} utilde^nu equals
        the level minus-one tau density h(beta, -1)."""
        ring = self.hierarchy.ring
        acc = weighted_sum(ring, lambda nu: ring.eta_pair(beta, nu),
                           self.map.images)
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
    # each bracket dx {g, h_mu} is formed once; a bracket clipped to zero
    # still passes its claim on to the sum
    shifts = {mu: dx(poisson_local(generator, hierarchy.functional(mu, 0)))
              for mu in range(1, ring.n_vars + 1)}
    m = MiuraMap({alpha: ring.u(alpha) + weighted_sum(
        ring, lambda mu: ring.eta_inv_pair(alpha, mu), shifts)
        for alpha in range(1, ring.n_vars + 1)}, ring=ring)
    return m, TransformedTau(hierarchy, generator, m)
