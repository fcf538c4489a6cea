"""Spans and counters around loophier's entry points, from outside the program.

A span wraps one function: it counts calls and accumulates self time (the
call's duration minus the time of the spans it called) and inclusive time
(counted only for the outermost active call of that span, so recursion is
not counted twice).  A counter wraps a hot helper that is too cheap for a
span and only counts its calls.

Wrapping rebinds the function in every ``loophier`` module that holds it,
so ``brackets.dx`` and ``functionals.var_deriv`` are traced as well as the
defining module's binding, and methods are rebound on their class.
``uninstall`` puts every original object back.
"""

import collections
import sys
import time

# (span name, owner, attribute); owner is "module" or "module:Class"
SPANS = [
    ("ring.mul", "ring:DiffPoly", "__mul__"),
    ("ring.mul", "ring:DiffPoly", "__rmul__"),
    ("ring.add", "ring:DiffPoly", "__add__"),
    ("ring.add", "ring:DiffPoly", "__radd__"),
    ("ring.add", "ring:DiffPoly", "__sub__"),
    ("ring.add", "ring:DiffPoly", "__rsub__"),
    ("ring.add", "ring:DiffPoly", "__neg__"),
    ("ring.scale", "ring:DiffPoly", "scale"),
    ("ring.scale", "ring:DiffPoly", "__truediv__"),
    ("ring.dx", "ring", "dx"),
    ("ring.partial", "ring", "partial"),
    ("functionals.var_deriv", "functionals", "var_deriv"),
    ("functionals.dx_inverse", "functionals", "dx_inverse"),
    ("functionals.split_exact", "functionals", "split_exact"),
    ("functionals.reduce_density", "functionals", "reduce_density"),
    ("functionals.d_minus_one_inverse", "functionals", "d_minus_one_inverse"),
    ("brackets.poisson", "brackets", "poisson_local"),
    ("brackets.star", "brackets", "star_commutator_local"),
    ("brackets.kernel_row", "brackets", "contraction_row"),
    ("recursion.density", "recursion:Hierarchy", "density"),
    ("recursion.check", "recursion:Hierarchy", "report"),
    ("recursion.check.commute", "recursion:Hierarchy", "commute_residual"),
    ("ansatz.basis", "ansatz", "monomial_basis"),
    ("ansatz.solve", "ansatz", "solve_dr_type"),
]

# coefficient arithmetic: about a microsecond a call, so counted, not timed
COUNTERS = [("coeffs.ops", "coeffs", name)
            for name in ("cmul", "cadd", "cscale", "cneg", "cdiv")]


def _owner(spec):
    module, _, cls = spec.partition(":")
    mod = sys.modules["loophier." + module]
    return getattr(mod, cls) if cls else mod


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans = {}      # name -> [calls, self_s, inclusive_s]
        self.counts = collections.defaultdict(int)
        self._stack = []     # one [child time] cell per open span
        self._active = {}    # name -> open calls of that span
        self._patches = []   # (owner, attribute, original)
        self._rows = set()   # distinct contraction_row arguments
        self._levels = set()  # distinct (hierarchy, alpha, p) computed
        self._observe = self._observers()  # span name -> observer

    # -- observers: counts taken at a span boundary from its call ------------

    def _observers(self):
        c = self.counts

        def mul(args, result):
            if hasattr(args[1], "terms"):  # polynomial, not scalar, product
                c["ring.mul.pairs"] += len(args[0].terms) * len(args[1].terms)
                c["ring.mul.kept"] += len(result.terms)

        def peel(args, result):
            c["functionals.terms_in"] += len(args[0].terms)

        def row(args, result):
            self._rows.add(args[0])

        def density(args, result):
            level = (id(args[0]), args[1], args[2])
            if args[2] >= 0 and level not in self._levels:
                self._levels.add(level)
                c["recursion.levels"] += 1
                c["recursion.terms_out"] += len(result.terms)

        def solve(args, result):
            c["ansatz.unknowns"] += len(args[0].basis)

        return {"ring.mul": mul, "functionals.dx_inverse": peel,
                "functionals.split_exact": peel,
                "functionals.reduce_density": peel,
                "brackets.kernel_row": row, "recursion.density": density,
                "ansatz.solve": solve}

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn):
        observe = self._observe.get(name)
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        active = self._active
        active.setdefault(name, 0)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            active[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                active[name] -= 1
                stat[0] += 1
                stat[1] += dt - cell[0]
                if not active[name]:
                    stat[2] += dt
                if stack:
                    stack[-1][0] += dt
            if observe:
                observe(args, result)
            return result

        return traced

    def _counter(self, name, fn):
        counts = self.counts

        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every entry point; loophier must already be imported."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "loophier" or n.startswith("loophier.")]
        for table, make in ((SPANS, self._span), (COUNTERS, self._counter)):
            for name, spec, attr in table:
                owner = _owner(spec)
                original = vars(owner)[attr]
                wrapper = make(name, original)
                if ":" in spec:
                    self._bind(owner, attr, original, wrapper)
                    continue
                for mod in modules:
                    for binding, value in list(vars(mod).items()):
                        if value is original:
                            self._bind(mod, binding, original, wrapper)

    def _bind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        """Restore every binding; True when each holds its original again."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        restored = all(vars(owner)[attr] is original
                       for owner, attr, original in self._patches)
        self._patches = []
        return restored

    def bindings(self):
        """Number of bindings currently replaced by wrappers."""
        return len(self._patches)

    # -- results -------------------------------------------------------------

    def self_total(self):
        """Sum of self times over every span so far."""
        return sum(stat[1] for stat in self.spans.values())

    def layer_metrics(self):
        """Per-layer metrics in the names BENCHMARK.json uses."""
        def calls(n):
            return self.spans[n][0]

        def self_s(n):
            return self.spans[n][1]

        def incl_s(n):
            return self.spans[n][2]

        c = self.counts
        row_calls = calls("brackets.kernel_row")
        return {
            "ring.mul.calls": calls("ring.mul"),
            "ring.mul.self_s": self_s("ring.mul"),
            "ring.mul.keep_ratio": (c["ring.mul.kept"] / c["ring.mul.pairs"]
                                    if c["ring.mul.pairs"] else 0.0),
            "ring.dx.calls": calls("ring.dx"),
            "ring.dx.self_s": self_s("ring.dx"),
            "ring.partial.self_s": self_s("ring.partial"),
            "ring.add.self_s": self_s("ring.add"),
            "ring.scale.self_s": self_s("ring.scale"),
            "ring.self_s": sum(stat[1] for n, stat in self.spans.items()
                               if n.startswith("ring.")),
            "coeffs.ops": c["coeffs.ops"],
            "functionals.dx_inverse.calls": calls("functionals.dx_inverse"),
            "functionals.dx_inverse.self_s": self_s("functionals.dx_inverse"),
            "functionals.dx_inverse.s": incl_s("functionals.dx_inverse"),
            "functionals.var_deriv.calls": calls("functionals.var_deriv"),
            "functionals.var_deriv.s": incl_s("functionals.var_deriv"),
            "functionals.split_exact.self_s": self_s("functionals.split_exact"),
            "functionals.reduce_density.self_s":
                self_s("functionals.reduce_density"),
            "functionals.d_minus_one_inverse.s":
                incl_s("functionals.d_minus_one_inverse"),
            "functionals.terms_in": c["functionals.terms_in"],
            "brackets.poisson.calls": calls("brackets.poisson"),
            "brackets.poisson.self_s": self_s("brackets.poisson"),
            "brackets.star.calls": calls("brackets.star"),
            "brackets.star.self_s": self_s("brackets.star"),
            "brackets.star.s": incl_s("brackets.star"),
            "brackets.kernel_row.calls": row_calls,
            "brackets.kernel_row.s": incl_s("brackets.kernel_row"),
            "brackets.kernel_row.hit_ratio": (1 - len(self._rows) / row_calls
                                              if row_calls else 0.0),
            "recursion.levels": c["recursion.levels"],
            "recursion.terms_out": c["recursion.terms_out"],
            "recursion.density.self_s": self_s("recursion.density"),
            "recursion.check.s": incl_s("recursion.check"),
            "recursion.check.commute.s": incl_s("recursion.check.commute"),
            "ansatz.basis.s": incl_s("ansatz.basis"),
            "ansatz.unknowns": c["ansatz.unknowns"],
            "ansatz.solve.self_s": self_s("ansatz.solve"),
        }
