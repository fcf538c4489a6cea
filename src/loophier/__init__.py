"""Exact symbolic engine for integrable hierarchies of differential polynomials."""

from importlib import import_module

from .errors import (LoopHierError, ContextMismatch, ModeMismatch, NotExact,
                     WeightOneComponent, WeightZeroComponent,
                     SingularAtEpsilonZero, Inconsistent, ParseError)
from .ring import (TruncationWindow, RingContext, DiffPoly, dx, partial,
                   euler_D, substitute, serialize, parse, pretty, parse_pretty)
from .functionals import (LocalFunctional, integrate, var_deriv, dx_inverse,
                          d_minus_one_inverse)
from .brackets import (DiffOperator, HamiltonianOperator, poisson_local,
                       poisson, star_commutator_local, star_commutator)
from .recursion import HierarchySpec, Hierarchy, evolve_density
from .ansatz import (AnsatzProblem, AnsatzSolution, monomial_basis,
                     solve_dr_type)
from .presets import PRESETS, build

__version__ = "0.1.0"

# loophier.miura is imported on first use of it or of one of these names
# (PEP 562), so that a process that never changes coordinates does not
# compile it
_MIURA = ("MiuraMap", "push_operator", "push_functional", "normal_miura",
          "parse_miura")


def __getattr__(name):
    if name == "miura" or name in _MIURA:
        miura = import_module(".miura", __name__)
        return miura if name == "miura" else getattr(miura, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
