"""Hierarchy generation by weighted recursion.

Starting from the seed densities G_{alpha,-1} = eta_{alpha mu} u^mu, each
next density solves

    dx (D - 1) G_{alpha, p+1} = B(G_{alpha, p}, Gen)

where D is the weight operator, Gen is the step functional, and B is the
classical bracket or (1/hbar) times the quantum commutator.  For a
hierarchy the right side is always exact and free of weight-one monomials,
so the two inversions are well defined; constants are invisible to B, so
they can be supplied from a side table or dropped without changing any
flow.  recursion_step takes one level and returns what obstructs it, which
Hierarchy raises on and the ansatz solver imposes as constraints.
"""

from .errors import (ContextMismatch, ModeMismatch, NotExact,
                     WeightOneComponent)
from .ring import DiffPoly, dx, partial, pretty, serialize, weighted_sum
from .functionals import (integrate, dx_inverse, d_minus_one_inverse,
                          d_inverse, reduce_density, split_exact)
from .brackets import (poisson_local, poisson, star_commutator_local,
                       star_commutator)

__all__ = ["HierarchySpec", "Hierarchy", "flow_bracket", "recursion_step",
           "evolve_density"]


class HierarchySpec:
    """Immutable description of a hierarchy to generate.

    generator: density whose functional drives the recursion (it is the
    level (1,1) functional itself).
    constants: optional {(alpha, p): u-free density} injected after each
    step, so 1 <= alpha <= n_vars and p >= 0; the recursion never
    determines constants, so absent entries mean the density is produced
    without its constant part.  Each entry is checked here, and an error
    names its key: TypeError for a key that is not a pair of ints or a
    value that is not a DiffPoly, ContextMismatch for a value from another
    ring, ValueError for a level no step computes or a u-dependent value.
    """

    def __init__(self, name, ring, generator, constants=None):
        self.name = name
        self.ring = ring
        ring.check(generator.ring)
        self.generator = generator
        self.constants = dict(constants) if constants else {}
        for key, c in self.constants.items():
            if (type(key) is not tuple or len(key) != 2
                    or any(type(x) is not int for x in key)):
                raise TypeError(f"constant key {key!r} is not an (alpha, p) "
                                "pair of ints")
            alpha, p = key
            if not 1 <= alpha <= ring.n_vars or p < 0:
                raise ValueError(f"no step computes level {key}")
            if not isinstance(c, DiffPoly):
                raise TypeError(f"constant for {key} is not a DiffPoly: "
                                f"{c!r}")
            if not ring.compatible(c.ring):
                raise ContextMismatch(f"constant for {key} is in another ring")
            if c.udeg_max() > 0:
                raise ValueError(f"constant for {key} depends on the fields")


def flow_bracket(f, functional):
    """Density-level flow bracket in the ring's mode.

    A quantum ring takes (1/hbar) times the star commutator; a classical
    ring takes the Poisson bracket with the standard operator.
    """
    if f.ring.mode == "quantum":
        return star_commutator_local(f, functional, divided=True)
    return poisson_local(f, functional)


def recursion_step(g, functional):
    """One level of the recursion dx (D - 1) next = B(g, functional).

    The peel splits the bracket as B = dx(m) + r + c.  Returns (next,
    not_exact, weight_one): not_exact = r + c is the part no total
    derivative has, weight_one holds the terms of m of D-weight one, which
    (D - 1) cannot invert, and next is (D - 1)^-1 of the rest of m.  The
    step is obstructed unless both obstructions vanish; callers decide
    whether that is an error or a constraint.
    """
    m, r, c = split_exact(flow_bracket(g, functional))
    weight_one = m.weight_part(1)
    if weight_one.terms:
        m = m - weight_one
    return d_minus_one_inverse(m), r + c, weight_one


def seed_density(ring, alpha):
    """The seed G_{alpha,-1} = eta_{alpha mu} u^mu of the recursion."""
    return weighted_sum(ring, lambda mu: ring.eta_pair(alpha, mu),
                        {mu: ring.u(mu) for mu in range(1, ring.n_vars + 1)})


class Hierarchy:
    """Lazy table of densities G_{alpha, p} with the structure identities.

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

    # -- densities ---------------------------------------------------------

    def density(self, alpha, p):
        """G_{alpha, p}, computed on demand (1 <= alpha <= n_vars, p >= -1).

        An obstructed step raises NotExact (the bracket has a part, within
        the window, that no total derivative has) or WeightOneComponent
        (its preimage has a D-weight-one term).  The message starts with
        the level it was computing; the cause, of the same type, holds the
        obstruction as text.
        """
        if not 1 <= alpha <= self.ring.n_vars:
            raise ValueError(
                f"alpha = {alpha} is outside 1..{self.ring.n_vars}")
        if p < -1:
            raise ValueError("levels start at p = -1")
        key = (alpha, p)
        if key not in self._dens:
            step, not_exact, weight_one = recursion_step(
                self.density(alpha, p - 1), self._gen_func)
            level = f"G_{{{alpha},{p}}}"
            residue = not_exact.within_window()
            if not residue.is_zero():
                raise NotExact(f"{level}: the flow is not a total derivative"
                               ) from NotExact(pretty(residue))
            if not weight_one.is_zero():
                raise WeightOneComponent(
                    f"{level}: a D-weight-one term cannot be inverted"
                ) from WeightOneComponent(pretty(weight_one))
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

    # -- structure identities: each residual is zero iff it holds ----------

    def commute_residual(self, ap, bq):
        """Reduced density of the bracket of two levels (zero iff they
        commute)."""
        F = self.functional(*ap)
        G = self.functional(*bq)
        # the undivided commutator of two functionals; the divided
        # flow_bracket of their densities costs several times more here
        if self.ring.mode == "quantum":
            bracket = star_commutator(F, G)
        else:
            bracket = poisson(F, G)
        return bracket.reduced().within_window()

    def string_residual(self, alpha, p):
        """d/du^1 lowers the level by one (modulo constants)."""
        lhs = partial(self.density(alpha, p), 1, 0).without_constants()
        rhs = self.density(alpha, p - 1).without_constants()
        return (lhs - rhs).within_window()

    def constants_chain_residual(self, alpha, p):
        """The constant of level p is the u-free part of d/du^1 at p+1.

        Constants carry no u-degree, so no window applies.
        """
        lhs = partial(self.density(alpha, p + 1), 1, 0).constant_part()
        rhs = self.density(alpha, p).constant_part()
        return lhs - rhs

    def second_recursion_residual(self, alpha, beta, p):
        """dx d/du^beta of level p+1 equals the bracket with level (beta,0).

        The level (beta, 0) functional here is the one the recursion itself
        produced, so this is a nontrivial consistency identity.
        """
        lhs = dx(partial(self.density(alpha, p + 1), beta, 0))
        rhs = flow_bracket(self.density(alpha, p), self.functional(beta, 0))
        return (lhs - rhs).within_window()

    def self_consistency_residual(self):
        """The generated level (1,1) integrates back to the generator."""
        return reduce_density(
            self.density(1, 1) - self.spec.generator).within_window()

    # -- tau structure -----------------------------------------------------

    def tau_density(self, alpha, p):
        """h_{alpha, p}: the u^1 variational derivative one level up.

        Defined for p >= -1 in either mode, and cached with the level's
        functional.
        """
        return self.functional(alpha, p + 1).var_deriv(1)

    def tau_symmetry_residual(self, alpha, p, beta, q, h=None):
        """Bracket asymmetry of tau densities, as densities (zero when
        symmetric).

        Both sides use the integrated densities one level down as the
        functional argument; by the string equation those are the tau
        functionals themselves.  h(beta, q) gives the tau densities,
        tau_density by default; a transformed tau structure passes its own.
        """
        h = h or self.tau_density
        lhs = flow_bracket(h(alpha, p - 1), self.functional(beta, q))
        rhs = flow_bracket(h(beta, q - 1), self.functional(alpha, p))
        return (lhs - rhs).within_window()

    def omega(self, alpha, p, beta, q):
        """Two-point density of a classical hierarchy, for p, q >= 0: the
        x-antiderivative of the tau bracket, normalized to vanish at u = 0."""
        if self.ring.mode != "classical":
            raise ModeMismatch("tau structures are classical-only")
        if p < 0 or q < 0:
            raise ValueError("omega needs p, q >= 0")
        flow = flow_bracket(self.tau_density(alpha, p - 1),
                            self.functional(beta, q))
        return dx_inverse(flow)

    def normal_coordinates(self):
        """Coordinates in which the tau structure starts at the identity.

        utilde^alpha = eta^{alpha mu} D^{-1} d/du^mu of the generator's
        u^1 variational derivative.
        """
        ring = self.ring
        vd = self._gen_func.var_deriv(1)
        grads = {mu: d_inverse(partial(vd, mu, 0))
                 for mu in range(1, ring.n_vars + 1)}
        return {alpha: weighted_sum(
            ring, lambda mu: ring.eta_inv_pair(alpha, mu), grads)
            for alpha in range(1, ring.n_vars + 1)}

    # -- reporting ---------------------------------------------------------

    def report(self, up_to):
        """Verification results as a list of plain dicts.

        Each entry has check, indices, and residual (a formula document,
        empty dict when the check passes).  The identities run, in order,
        with alpha and beta over every variable and the levels (alpha, p)
        for p = 0..up_to:

        - "string" (alpha, p) at every level;
        - "second_recursion" (alpha, beta, 0), at p = 0 only;
        - "commute" (alpha, p, beta, q) for every unordered pair of distinct
          levels;
        - "tau_symmetry" (alpha, p, beta, q) for every pair of levels, a
          level with itself included, on a classical ring only.
        """
        alphas = range(1, self.ring.n_vars + 1)
        levels = [(a, p) for a in alphas for p in range(0, up_to + 1)]

        def entry(check, indices, residual):
            doc = {} if residual.is_zero() else serialize(residual)
            return {"check": check, "indices": list(indices),
                    "residual": doc}

        out = [entry("string", ap, self.string_residual(*ap))
               for ap in levels]
        for a in alphas:
            for b in alphas:
                out.append(entry("second_recursion", (a, b, 0),
                                 self.second_recursion_residual(a, b, 0)))
        for i, ap in enumerate(levels):
            for bq in levels[i + 1:]:
                out.append(entry("commute", (*ap, *bq),
                                 self.commute_residual(ap, bq)))
        if self.ring.mode == "classical":
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


def evolve_density(hierarchy, f, times, order):
    """Expand the formal time evolution of f through total time-order.

    times maps (alpha, level) to a time: a rational, an (re, im) pair of
    them, or a constant of the ring such as ring.param("q"), whose
    parameters the result keeps.  The order-m term applies the summed flow
    derivation m times with a 1/m! factor.
    """
    flows = [(hierarchy.functional(a, i), t)
             for (a, i), t in times.items()]

    def step(g):
        acc = hierarchy.ring.zero()
        for func, t in flows:
            acc = acc + flow_bracket(g, func) * t
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
