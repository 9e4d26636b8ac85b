"""Closed-form constants for spectral eigenvalue bounds.

Everything here is arithmetic on top of the standard library's Gamma: the
semiclassical constants, their best known multiples, and the derived
coefficients used by the counting and kinetic-energy inequalities.
"""

import math
import sys

# Best known excess over the semiclassical value for the one-dimensional
# gamma = 1 bound (operator-valued lifting keeps it dimension-free).
EXCESS = 1.456


def _check_dim(dim, minimum=1):
    if not isinstance(dim, (int,)) or isinstance(dim, bool):
        raise ValueError(f"dimension must be an integer, got {dim!r}")
    if dim < minimum:
        raise ValueError(f"dimension must be >= {minimum}, got {dim}")
    return dim


def _check_excess(excess):
    if not (math.isfinite(excess) and excess > 0.0):
        raise ValueError(f"excess must be positive and finite, got {excess!r}")


def lt_classical(gamma, dim):
    """Semiclassical constant Gamma(g+1) / ((4 pi)^(d/2) Gamma(g + d/2 + 1)).

    ValueError where no normal double holds it or its parts: Gamma overflows
    near gamma + d/2 = 170, and at gamma = 1 the value underflows from d = 225.
    """
    gamma = float(gamma)
    if not math.isfinite(gamma) or gamma < 0.0:
        raise ValueError(f"gamma must be finite and >= 0, got {gamma!r}")
    _check_dim(dim)
    try:
        value = math.gamma(gamma + 1.0) / (
            (4.0 * math.pi) ** (dim / 2.0) * math.gamma(gamma + dim / 2.0 + 1.0)
        )
    except OverflowError:
        value = 0.0
    if value < sys.float_info.min:
        raise ValueError(f"the constant at gamma={gamma}, d={dim} is out of floating-point range")
    return value


def lt_best_known(gamma, dim, excess=EXCESS):
    """Best known constant: the semiclassical value times a three-branch factor.

    Factor 1 for gamma >= 3/2, ``excess`` for 1 <= gamma < 3/2, and
    2 * ``excess`` for 1/2 <= gamma < 1.  Below 1/2 no uniform constant of
    this form is available and a ValueError is raised, as it is for an
    ``excess`` that is not positive and finite.
    """
    gamma = float(gamma)
    if not math.isfinite(gamma) or gamma < 0.5:
        raise ValueError(
            f"best known constants require gamma >= 1/2, got {gamma!r}"
        )
    _check_excess(excess)
    if gamma >= 1.5:
        factor = 1.0
    elif gamma >= 1.0:
        factor = excess
    else:
        factor = 2.0 * excess
    return factor * lt_classical(gamma, dim)


def kinetic_constant(dim, excess=EXCESS):
    """Constant of the dual kinetic-energy inequality.

    (2/d) (1 + d/2)^(1 + 2/d) L_{1,d}^(2/d) with L_{1,d} the best known
    gamma = 1 constant.
    """
    _check_dim(dim, minimum=2)
    lt1 = lt_best_known(1.0, dim, excess)
    return (2.0 / dim) * (1.0 + dim / 2.0) ** (1.0 + 2.0 / dim) * lt1 ** (2.0 / dim)


def counting_constant(dim, excess=EXCESS):
    """Coefficient of Lambda^(d/2) |Omega| in the direct counting bound.

    (1 + 2/d)^(d/2) (1 + d/2) L_{1,d}, obtained by feeding the gamma = 1
    bound through the standard counting reduction.
    """
    _check_dim(dim, minimum=2)
    return (
        (1.0 + 2.0 / dim) ** (dim / 2.0)
        * (1.0 + dim / 2.0)
        * lt_best_known(1.0, dim, excess)
    )


def product_counting_constant(dim):
    """Coefficient of Lambda^(d/2) |Omega| in the product-structure counting bound.

    ((d+1)/d)^((d+1)/2) sqrt(d) 2 L^cl_{1/2,d}; no excess factor enters
    because the one-dimensional gamma = 1/2 ingredient is semiclassical
    up to the fixed factor 2.
    """
    _check_dim(dim, minimum=2)
    return (
        ((dim + 1.0) / dim) ** ((dim + 1.0) / 2.0)
        * math.sqrt(float(dim))
        * 2.0
        * lt_classical(0.5, dim)
    )


def constant_ratio(dim, excess=EXCESS):
    """product_counting_constant / counting_constant for the same dimension.

    Values above 1 mean the direct route wins; the figure-one sweep plots
    this over a range of dimensions.
    """
    return product_counting_constant(dim) / counting_constant(dim, excess)
