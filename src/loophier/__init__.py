"""Exact symbolic engine for integrable hierarchies of differential polynomials."""

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
from .miura import (MiuraMap, push_operator, push_functional, normal_miura,
                    parse_miura)
from .ansatz import (AnsatzProblem, AnsatzSolution, monomial_basis,
                     solve_dr_type)
from .presets import PRESETS, build

__version__ = "0.1.0"
