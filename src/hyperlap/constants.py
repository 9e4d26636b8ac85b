"""Closed-form constants for spectral eigenvalue bounds.

Everything here is exact arithmetic on top of the Gamma function: the
semiclassical constants, their best known multiples, and the derived
coefficients used by the counting and kinetic-energy inequalities.
"""

import math

# Best known excess over the semiclassical value for the one-dimensional
# gamma = 1 bound (operator-valued lifting keeps it dimension-free).
EXCESS = 1.456

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

# Lanczos approximation, g = 7, 9 terms.  Relative error ~1e-14 on the
# positive real axis, comfortably inside the 1e-12 contract on (0, 50].
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma_fn(x):
    """Gamma function on the positive real axis.

    Integer and half-integer arguments short-circuit to exact recurrences
    (factorial, resp. sqrt(pi) times a rising product), so the identities
    between constants below hold to rounding.  Everything else goes through
    a Lanczos approximation.
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"gamma_fn requires a finite positive argument, got {x!r}")
    if x == math.floor(x) and x <= 171.0:
        return float(math.factorial(int(x) - 1))
    if 2.0 * x == math.floor(2.0 * x) and x < 171.0:
        # x = m + 1/2 with integer m >= 0
        val = math.sqrt(math.pi)
        m = int(x - 0.5)
        for j in range(m):
            val *= j + 0.5
        return val
    if x < 0.5:
        # reflection keeps the series argument away from the pole side
        return math.pi / (math.sin(math.pi * x) * gamma_fn(1.0 - x))
    z = x - 1.0
    acc = _LANCZOS_COEFFS[0]
    for i in range(1, len(_LANCZOS_COEFFS)):
        acc += _LANCZOS_COEFFS[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _SQRT_TWO_PI * t ** (z + 0.5) * math.exp(-t) * acc


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
    """Semiclassical constant Gamma(g+1) / ((4 pi)^(d/2) Gamma(g + d/2 + 1))."""
    gamma = float(gamma)
    if not math.isfinite(gamma) or gamma < 0.0:
        raise ValueError(f"gamma must be finite and >= 0, got {gamma!r}")
    _check_dim(dim)
    return gamma_fn(gamma + 1.0) / (
        (4.0 * math.pi) ** (dim / 2.0) * gamma_fn(gamma + dim / 2.0 + 1.0)
    )


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
