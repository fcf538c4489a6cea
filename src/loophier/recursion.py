"""Hierarchy generation by weighted recursion.

Starting from the seed densities G_{alpha,-1} = eta_{alpha mu} u^mu, each
next density solves

    dx (D - 1) G_{alpha, p+1} = B(G_{alpha, p}, Gen)

where D is the weight operator, Gen is the step functional, and B is the
classical bracket or (1/hbar) times the quantum commutator.  The right side
is always exact and free of weight-one monomials, so the two inversions are
well defined; constants are invisible to B, so they can be supplied from a
side table or dropped without changing any flow.
"""

from .rat import Q
from .errors import (ModeMismatch, NotExact, WeightOneComponent,
                     WeightZeroComponent)
from .ring import dx, partial, serialize
from .functionals import (integrate, dx_inverse, d_minus_one_inverse,
                          d_inverse)
from .brackets import (HamiltonianOperator, poisson_local, poisson,
                       star_commutator_local, star_commutator)

__all__ = [
    "HierarchySpec", "Hierarchy", "TauStructure",
    "generate", "verify_commutativity", "string_check",
    "second_recursion_check", "tau_structure", "omega",
    "normal_coordinates", "evolve_density",
]


class HierarchySpec:
    """Immutable description of a hierarchy to generate.

    generator: density whose functional drives the recursion (it is the
    level (1,1) functional itself).
    constants: optional {(alpha, p): u-free density} injected after each
    step; the recursion never determines constants, so absent entries mean
    the density is produced without its constant part.
    """

    def __init__(self, name, ring, generator, constants=None, operator=None):
        self.name = name
        self.ring = ring
        ring.check(generator.ring)
        self.generator = generator
        self.constants = dict(constants) if constants else {}
        for key, c in self.constants.items():
            if c.udeg_max() > 0:
                raise ValueError(f"constant for {key} depends on the fields")
        self.operator = operator if operator is not None \
            else HamiltonianOperator.standard(ring)


def seed_density(ring, alpha):
    """The seed G_{alpha,-1} = eta_{alpha mu} u^mu of the recursion."""
    acc = ring.zero()
    for mu in range(1, ring.n_vars + 1):
        acc = acc + ring.u(mu).scale(ring.eta_pair(alpha, mu))
    return acc


class Hierarchy:
    """Lazy table of densities G_{alpha, p} with the structure checks.

    constants_policy: "table" injects the spec's constant terms, "zero"
    leaves every density with no u-free part.  Constants never influence
    any bracket, so the two policies generate identical flows.
    """

    def __init__(self, spec, constants_policy="table"):
        if constants_policy not in ("table", "zero"):
            raise ValueError(f"unknown constants policy {constants_policy!r}")
        self.spec = spec
        self.ring = spec.ring
        self.constants_policy = constants_policy
        self._dens = {}
        self._funcs = {}
        self._gen_func = integrate(spec.generator)
        for alpha in range(1, self.ring.n_vars + 1):
            self._dens[(alpha, -1)] = seed_density(self.ring, alpha)

    # -- flows -------------------------------------------------------------

    def bracket_local(self, f, functional):
        """Density-level flow bracket in the hierarchy's mode."""
        if self.ring.mode == "quantum":
            return star_commutator_local(f, functional, divided=True)
        return poisson_local(f, functional, self.spec.operator)

    def functional_bracket(self, F, G):
        if self.ring.mode == "quantum":
            return star_commutator(F, G)
        return poisson(F, G, self.spec.operator)

    # -- densities ---------------------------------------------------------

    def density(self, alpha, p):
        """G_{alpha, p}, computed on demand (1 <= alpha <= n_vars, p >= -1).

        A failed inversion re-raises its own type with a message that
        starts with the level it was computing.
        """
        if not 1 <= alpha <= self.ring.n_vars:
            raise ValueError(
                f"alpha = {alpha} is outside 1..{self.ring.n_vars}")
        if p < -1:
            raise ValueError("levels start at p = -1")
        key = (alpha, p)
        if key not in self._dens:
            prev = self.density(alpha, p - 1)
            flow = self.bracket_local(prev, self._gen_func)
            try:
                step = d_minus_one_inverse(dx_inverse(flow))
            except (NotExact, WeightOneComponent,
                    WeightZeroComponent) as exc:
                raise type(exc)(f"G_{{{alpha},{p}}}: {exc}") from exc
            if self.constants_policy == "table":
                const = self.spec.constants.get(key)
                if const is not None:
                    step = step + const
            self._dens[key] = step
        return self._dens[key]

    def functional(self, alpha, p):
        key = (alpha, p)
        if key not in self._funcs:
            self._funcs[key] = integrate(self.density(alpha, p))
        return self._funcs[key]

    def generate(self, up_to, alphas=None):
        """Force computation of all levels through p = up_to."""
        if alphas is None:
            alphas = range(1, self.ring.n_vars + 1)
        for alpha in alphas:
            self.density(alpha, up_to)
        return self

    # -- structure checks --------------------------------------------------

    def commute_residual(self, ap, bq):
        """Reduced density of the bracket of two levels (zero iff they
        commute)."""
        F = self.functional(*ap)
        G = self.functional(*bq)
        return self.functional_bracket(F, G).reduced().within_window()

    def commute(self, ap, bq):
        """Do the (alpha,p) and (beta,q) functionals commute exactly?"""
        return self.commute_residual(ap, bq).is_zero()

    def string_residual(self, alpha, p):
        lhs = partial(self.density(alpha, p), 1, 0).without_constants()
        rhs = self.density(alpha, p - 1).without_constants()
        return (lhs - rhs).within_window()

    def string_check(self, alpha, p):
        """d/du^1 lowers the level by one (modulo constants)."""
        return self.string_residual(alpha, p).is_zero()

    def constants_chain_check(self, alpha, p):
        """The constant of level p is the u-free part of d/du^1 at p+1."""
        lhs = partial(self.density(alpha, p + 1), 1, 0).constant_part()
        rhs = self.density(alpha, p).constant_part()
        return (lhs - rhs).is_zero()

    def second_recursion_residual(self, alpha, beta, p):
        lhs = dx(partial(self.density(alpha, p + 1), beta, 0))
        rhs = self.bracket_local(self.density(alpha, p),
                                 self.functional(beta, 0))
        return (lhs - rhs).within_window()

    def second_recursion_check(self, alpha, beta, p):
        """dx d/du^beta of level p+1 equals the bracket with level (beta,0).

        The level (beta, 0) functional here is the one the recursion itself
        produced, so this is a nontrivial consistency identity.
        """
        return self.second_recursion_residual(alpha, beta, p).is_zero()

    # -- tau structure -----------------------------------------------------

    def tau_density(self, alpha, p):
        """h_{alpha, p}: the u^1 variational derivative one level up."""
        return self.functional(alpha, p + 1).var_deriv(1)

    def tau_symmetry_residual(self, alpha, p, beta, q):
        """Bracket asymmetry of tau densities, as densities (zero when
        symmetric).

        Both sides use the integrated densities one level down as the
        functional argument; by the string equation those are the tau
        functionals themselves.
        """
        lhs = self.bracket_local(self.tau_density(alpha, p - 1),
                                 self.functional(beta, q))
        rhs = self.bracket_local(self.tau_density(beta, q - 1),
                                 self.functional(alpha, p))
        return (lhs - rhs).within_window()

    def omega(self, alpha, p, beta, q):
        """Two-point density: the x-antiderivative of the tau bracket,
        normalized to vanish at u = 0."""
        flow = self.bracket_local(self.tau_density(alpha, p - 1),
                                  self.functional(beta, q))
        return dx_inverse(flow)

    def normal_coordinates(self):
        """Coordinates in which the tau structure starts at the identity.

        utilde^alpha = eta^{alpha mu} D^{-1} d/du^mu of the generator's
        u^1 variational derivative.
        """
        vd = self._gen_func.var_deriv(1)
        out = {}
        for alpha in range(1, self.ring.n_vars + 1):
            acc = self.ring.zero()
            for mu in range(1, self.ring.n_vars + 1):
                pair = self.ring.eta_inv_pair(alpha, mu)
                g = partial(vd, mu, 0)
                if g.is_zero():
                    continue
                acc = acc + d_inverse(g).scale(pair)
            out[alpha] = acc
        return out

    def self_consistency_check(self):
        """The generated level (1,1) integrates back to the generator."""
        return integrate(self.density(1, 1)) == self._gen_func

    # -- reporting ---------------------------------------------------------

    def report(self, up_to, alphas=None, pairs=None, tau=None):
        """Verification results as a list of plain dicts.

        Each entry has check, indices, and residual (a formula document,
        empty dict when the check passes).
        """
        if alphas is None:
            alphas = list(range(1, self.ring.n_vars + 1))

        def entry(check, indices, residual):
            doc = {} if residual.is_zero() else serialize(residual)
            return {"check": check, "indices": list(indices),
                    "residual": doc}

        out = []
        for a in alphas:
            for p in range(0, up_to + 1):
                out.append(entry("string", (a, p), self.string_residual(a, p)))
        for a in alphas:
            for b in alphas:
                out.append(entry("second_recursion", (a, b, 0),
                                 self.second_recursion_residual(a, b, 0)))
        if pairs is None:
            levels = [(a, p) for a in alphas for p in range(0, up_to + 1)]
            pairs = [(ap, bq) for i, ap in enumerate(levels)
                     for bq in levels[i + 1:]]
        for ap, bq in pairs:
            out.append(entry("commute", (*ap, *bq),
                             self.commute_residual(ap, bq)))
        if tau is None:
            tau = self.ring.mode == "classical"
        if tau:
            levels = [(a, p) for a in alphas for p in range(0, up_to + 1)]
            for i, ap in enumerate(levels):
                for bq in levels[i:]:
                    out.append(entry("tau_symmetry", (*ap, *bq),
                                     self.tau_symmetry_residual(*ap, *bq)))
        return out

    def serialize(self, up_to=None):
        """Document with the spec header and every computed density."""
        if up_to is not None:
            self.generate(up_to)
        w = self.ring.window
        doc = {
            "spec": {
                "name": self.spec.name,
                "mode": self.ring.mode,
                "n_vars": self.ring.n_vars,
                "params": list(self.ring.params),
                "genus_cutoff": w.genus_cutoff,
                "u_degree_cutoff": w.u_degree_cutoff,
                "constants_policy": self.constants_policy,
                "generator": serialize(self.spec.generator),
            },
            "densities": {},
        }
        for (alpha, p) in sorted(self._dens):
            doc["densities"][f"{alpha},{p}"] = serialize(self._dens[(alpha, p)])
        return doc


class TauStructure:
    """Tau densities of a classical hierarchy, with the two-point table."""

    def __init__(self, hierarchy):
        if hierarchy.ring.mode != "classical":
            raise ModeMismatch("tau structures are classical-only")
        self.hierarchy = hierarchy
        self._h = {}
        self._omega = {}

    def h(self, alpha, p):
        """Tau density h_{alpha, p}, defined for p >= -1."""
        key = (alpha, p)
        if key not in self._h:
            self._h[key] = self.hierarchy.tau_density(alpha, p)
        return self._h[key]

    def omega(self, alpha, p, beta, q):
        if p < 0 or q < 0:
            raise ValueError("omega needs p, q >= 0")
        key = (alpha, p, beta, q)
        if key not in self._omega:
            self._omega[key] = self.hierarchy.omega(alpha, p, beta, q)
        return self._omega[key]

    def symmetry_check(self, alpha, p, beta, q):
        d = self.omega(alpha, p, beta, q) - self.omega(beta, q, alpha, p)
        return d.within_window().is_zero()


# -- functional interface ----------------------------------------------------

def generate(spec, d_max, constants_policy="table", alphas=None):
    """Run the recursion through level d_max; returns the Hierarchy."""
    return Hierarchy(spec, constants_policy).generate(d_max, alphas)


def verify_commutativity(hierarchy, pairs):
    """[(pair, pair, ok)] for each requested pair of levels."""
    return [(ap, bq, hierarchy.commute(ap, bq)) for ap, bq in pairs]


def string_check(hierarchy, up_to, alphas=None):
    if alphas is None:
        alphas = range(1, hierarchy.ring.n_vars + 1)
    return [((a, p), hierarchy.string_check(a, p))
            for a in alphas for p in range(0, up_to + 1)]


def second_recursion_check(hierarchy, up_to, alphas=None):
    if alphas is None:
        alphas = range(1, hierarchy.ring.n_vars + 1)
    return [((a, b, p), hierarchy.second_recursion_check(a, b, p))
            for a in alphas for b in alphas for p in range(-1, up_to + 1)]


def tau_structure(hierarchy):
    return TauStructure(hierarchy)


def omega(tau, alpha, p, beta, q):
    return tau.omega(alpha, p, beta, q)


def normal_coordinates(hierarchy):
    return hierarchy.normal_coordinates()


def _as_pair(value):
    if hasattr(value, "pair"):
        return value.pair()
    if isinstance(value, tuple):
        return value
    return (Q(value), Q(0))


def evolve_density(hierarchy, f, times, order):
    """Expand the formal time evolution of f through total time-order.

    times maps (alpha, level) to a scalar; the order-m term applies the
    summed flow derivation m times with a 1/m! factor.
    """
    flows = [(hierarchy.functional(a, i), _as_pair(t))
             for (a, i), t in times.items()]

    def step(g):
        acc = hierarchy.ring.zero()
        for func, t in flows:
            acc = acc + hierarchy.bracket_local(g, func).scale(t)
        return acc

    total = f
    term = f
    fact = 1
    for m in range(1, order + 1):
        term = step(term)
        fact *= m
        total = total + term / fact
        if term.is_zero():
            break
    return total
