"""Local functionals: densities modulo total x-derivatives and constants.

The quotient is effective because the kernel of the variational derivative
is exactly Im(dx) + constants.  Canonical representatives come from a peel
reduction: as long as the maximal term (letters compared by derivative
order, then variable index) has a removable top letter, subtract the total
derivative of its obvious preimage.  What remains is the unique reduced
density of the class.  The peel walks the term keys, so it is ring.peel.
"""

from .errors import NotExact
from .ring import (DiffPoly, dx, partial, d_weight_inverse, peel, serialize,
                   pretty)

__all__ = ["var_deriv", "LocalFunctional", "integrate", "dx_inverse",
           "split_exact", "reduce_density", "d_minus_one_inverse", "d_inverse"]


def var_deriv(f, alpha):
    """Variational derivative sum_k (-dx)^k of d f / d u^alpha_k.

    The sum is taken in Horner form, out = d f / d u^alpha_k - dx(out)
    from the largest k down to 0, so it costs one dx per order.  It ends
    at the k = 0 term, so even a density with no letter of u^alpha gives a
    result whose exact_u is the one partial gives.  Each result is kept on
    f (_vd), keyed by alpha.
    """
    vd = getattr(f, "_vd", None)
    if vd is None:
        vd = f._vd = {}
    out = vd.get(alpha)
    if out is None:
        kmax = max((k for al, k in f.support_vars() if al == alpha),
                   default=0)
        out = partial(f, alpha, kmax)
        for k in range(kmax - 1, -1, -1):
            out = partial(f, alpha, k) - dx(out)
        vd[alpha] = out
    return out


def split_exact(f):
    """f = dx(m) + r + c with r the reduced density, c constant."""
    return peel(f)


def reduce_density(f):
    """Canonical representative of f modulo Im(dx) and constants, kept on
    f (_reduced)."""
    r = getattr(f, "_reduced", None)
    if r is None:
        r = f._reduced = peel(f)[1]
    return r


def dx_inverse(f):
    """Preimage under dx.  Raises NotExact when none exists.

    The peel alone decides exactness.  In each u-degree d >= 1 the
    variational derivatives of f vanish iff that part lies in Im(dx), iff
    its peel residue is zero; the u-degree 0 part is the constant part,
    which no total derivative has.  dx and the peel preserve u-degree, so
    the residue's window covers the same u-degrees of f as the window of
    the variational derivatives (partial lowers exact_u by one): residue
    terms above a windowed input's exact_u are junk from the truncation,
    not genuine failures, and are discarded.
    """
    m, r, c = peel(f)
    if not c.is_zero():
        raise NotExact("constant part obstructs integration")
    if not r.within_window().is_zero():
        raise NotExact("not a total derivative: reduced residue is nonzero")
    return m


def d_minus_one_inverse(f):
    """Inverse of (D - 1) where D is the weight operator euler_D."""
    return d_weight_inverse(f, shift=1)


def d_inverse(f):
    """Inverse of the weight operator euler_D."""
    return d_weight_inverse(f, shift=0)


class LocalFunctional:
    """A density considered up to total derivatives and constants.

    The density is a DiffPoly (anything else raises TypeError).  What is
    derived from it is kept on the polynomials (see DiffPoly), so two
    functionals of one density share it.  Both the variational derivatives
    and the brackets read the reduced density: var_deriv kills Im(dx) and
    constants term by term and the peel keeps exact_u, so no term or claim
    changes.
    """

    __slots__ = ("ring", "density")

    def __init__(self, density):
        if not isinstance(density, DiffPoly):
            raise TypeError("a local functional needs a DiffPoly density, "
                            f"not {type(density).__name__}")
        self.ring = density.ring
        self.density = density

    def var_deriv(self, alpha):
        return var_deriv(self.reduced(), alpha)

    def reduced(self):
        """Canonical reduced density of the class."""
        return reduce_density(self.density)

    def is_zero(self):
        """True when the density lies in Im(dx) + constants.

        That is the case exactly when its peel residue, the reduced
        density, is zero.  Residue terms above the density's exact_u are
        ignored, so a windowed computation is judged only on what it
        actually determined (see dx_inverse).
        """
        return self.reduced().within_window().is_zero()

    def __eq__(self, other):
        """Equal as functionals: the difference of the densities is zero
        modulo Im(dx) + constants, by the same peel test as is_zero."""
        if not isinstance(other, LocalFunctional):
            return NotImplemented
        self.ring.check(other.ring)
        return (self - other).is_zero()

    __hash__ = None

    def __add__(self, other):
        if isinstance(other, LocalFunctional):
            return LocalFunctional(self.density + other.density)
        return LocalFunctional(self.density + other)

    def __sub__(self, other):
        if isinstance(other, LocalFunctional):
            return LocalFunctional(self.density - other.density)
        return LocalFunctional(self.density - other)

    def serialize(self):
        doc = serialize(self.reduced())
        doc["functional"] = True
        return doc

    def __repr__(self):
        return f"<LocalFunctional int({pretty(self.reduced())}) dx>"


def integrate(density):
    """Wrap a density as a local functional."""
    return LocalFunctional(density)
