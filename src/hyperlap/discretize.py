"""Discretizations of -d^2/dt^2 + kappa exp(2t) with Dirichlet ends.

The coupling kappa >= 0, a float, is the only parameter (mode ell of a
strip of width w has kappa = (ell pi / w)^2).  Two routes: the
Shen-Legendre Galerkin family (symmetric banded matrices built once per
interval, mode by mode only the coupling changes; every certified solve
uses it) and second-order central finite differences (symmetric
tridiagonal, used as the cross-checking oracle).
Every Galerkin matrix is built without quadrature: B and the exp(2t) mass M
are one combination of Legendre Grams, M's from the exponential's Legendre
expansion and the Adams-Neumann integral of three Legendre polynomials.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constants import _real, _whole

# largest Galerkin resolution n.  The certified solves solve at 2n, so they
# take n <= _MAX_N // 2; a mode that asks for nearly all of its values makes
# Lanczos keep up to one vector per order, a dense basis of order 4095
# (about 134 MB) at the limit
_MAX_N = 4096


@dataclass(frozen=True)
class Interval:
    """Open interval (alpha, beta) on the t axis."""

    alpha: float
    beta: float

    def __post_init__(self):
        _real("alpha", self.alpha)
        _real("beta", self.beta)
        if not self.alpha < self.beta:
            raise ValueError(
                f"interval needs alpha < beta, got ({self.alpha}, {self.beta})"
            )
        if not math.isfinite(self.beta - self.alpha):
            raise ValueError(f"interval length overflows, got ({self.alpha}, {self.beta})")

    @property
    def length(self):
        return self.beta - self.alpha

    def from_reference(self, x):
        """Affine image of reference coordinates x in [-1, 1]."""
        x = np.asarray(x, dtype=float)
        return self.alpha + (self.beta - self.alpha) * (x + 1.0) / 2.0


@dataclass(frozen=True)
class GalerkinFamily:
    """Shen-Legendre Galerkin matrices of -psi'' + kappa exp(2t) psi on an interval.

    The basis is phi_k = L_k - L_{k+2} (k = 0 .. n-2) in the reference
    variable x of t = alpha + length (x + 1) / 2, so every function vanishes
    at both ends.  With all integrals taken in x (dt / dx cancels from the
    eigenproblem), mode kappa is the symmetric pencil (K + kappa M) c = nu B c:

    - ``stiffness``: the diagonal of K, (4 / length^2) (4k + 6);
    - ``mass_band``: B, nonzero only on the diagonal and at offset 2;
    - ``weight_band``: the exp(2t) mass matrix M, banded to rounding.

    B and M are one combination of Legendre Grams (see assemble_galerkin).
    Both bands are LAPACK lower bands, Fortran-ordered: row d holds the
    entries (j + d, j) in its first order - d columns.  The basis is
    hierarchical and every entry is independent of n, so the family at a
    lower resolution m is the leading block of this one: LAPACK band
    routines of order m - 1 given the first m - 1 columns of these bands
    read only entries inside that block.
    """

    stiffness: np.ndarray
    mass_band: np.ndarray
    weight_band: np.ndarray

    @property
    def order(self):
        return self.stiffness.size

    def operator_band(self, kappa):
        """K + kappa M as a new lower band."""
        a = kappa * self.weight_band
        a[0] += self.stiffness
        return a


def _exp_coefficients(length):
    """Legendre coefficients c_m of exp(length (x - 1)) for m below the band cut.

    c_m = (2m + 1) exp(-length) i_m(length), with i_m the modified
    spherical Bessel functions.  Miller's backward recurrence gives the
    ratios r_m = i_m / i_{m-1} from 1 / r_m = (2m + 1) / length + r_{m+1},
    starting from r = 0 at degree N + 1, and exp(-length) i_0 =
    (1 - exp(-2 length)) / (2 length) normalizes them, so nothing
    overflows at any length.

    With L = length, every ratio obeys, for m >= 1,

        1 - (m + 1/2) / L  <=  r_m  <=  1 / (1 + (m - 1/2) / L),

    a loosened form of Amos's bounds on I_{v+1} / I_v (Math. Comp. 28,
    1974).  Proof: r_m falls as r_{m+1} grows, so the lower bound at m + 1
    gives the upper one at m, and with a = (m + 1/2) / L the upper bound at
    m + 1 gives r_m >= (1 + a) / (1 + 2a + 2a^2) >= 1 - a, because
    (1 - a)(1 + 2a + 2a^2) = 1 + a - 2a^3.  Both hold for m >= L, where the
    lower bound is negative, and the induction runs down from there.  So
    past its peak near sqrt(L), c_m falls like exp(-m^2 / (2L)).

    The computed ratios r~_m carry relative errors e_m = r~_m / r_m - 1
    with e_m = -r~_m r_{m+1} e_{m+1} and e_{N+1} = -1, so |e_m| is the
    product of r~_j over j = m .. N and of r_j over j = m + 1 .. N + 1; a
    kept c_m sums the errors of its m ratios.  N lies 70 degrees past the
    smaller of two points:

    - e L / 2 (the smaller up to length 108): past it every r_j and r~_j is
      below L / (2j + 1) < 1/e, so c_m falls by more than e per degree, is
      below eps max c within 40 degrees, and the last 30 degrees shrink
      the start error by e^-60.
    - sqrt(200 L): the cut grows like sqrt(L) (cut^2 is about 77 L).  The
      pairs r~_j r~_{j+1} = 1 - (2j + 1) r~_j / L are below 1, so the first
      product is at most max(1, L / (2N + 1)), and by the upper bound the
      second is about exp(-((N + 1)^2 - m^2) / (2L)).  For cut |e_cut| to
      stay below eps / 2 this exponent must pass
      ln(2 cut L / ((2N + 1) eps)), 49 at length 1e6, so N^2 >= 77 L + 98 L;
      200 L meets the exact products at every length up to 1e9, in
      O(sqrt(L)) steps.

    The coefficients are cut at the first degree past the largest one
    where c_m < eps max c: the cut depends on the length only (19 at
    length 2, 27 at 6, 279 at 1000), and every degree from it on is
    rounding against the ones kept.
    """
    start = min(int(math.e * length / 2.0), int(math.sqrt(200.0 * length))) + 70
    ratios = np.ones(start + 1)
    r = 0.0
    for m in range(start, 0, -1):
        r = 1.0 / ((2 * m + 1) / length + r)
        ratios[m] = r
    i0 = -math.expm1(-2.0 * length) / (2.0 * length)
    c = (2.0 * np.arange(start + 1) + 1.0) * (i0 * np.cumprod(ratios))
    peak = int(np.argmax(c))
    return c[: peak + int(np.argmax(c[peak:] < np.finfo(float).eps * c[peak]))]


def _exp_gram(c, n, offsets):
    """G_jk, the integral of L_j L_k exp(length (x - 1)) over [-1, 1], by offset.

    Row d (d < offsets) holds G(j, j + d) for j = 0 .. n - d.  With
    exp(length (x - 1)) = sum of c_m L_m, and ``c`` its coefficients below
    the cut of _exp_coefficients, G_jk is the sum over m of c_m times the
    Adams-Neumann integral

        integral of L_j L_k L_m = 2 / (2s + 1) A(s - j) A(s - k) A(s - m) / A(s),

    where 2s = j + k + m, A(p) = prod_{i <= p} (2i - 1) / (2i), and the
    integral vanishes unless j + k + m is even and |j - k| <= m <= j + k.
    Every term is nonnegative.  For a fixed offset d and degree m the terms
    over j are one vector operation; the degrees run down from the last
    one before the cut (at most 2n, past which every integral vanishes), so
    offsets from the cut on stay zero.  No term depends on n, so the result
    at n is bitwise the leading part of the result at any larger n.
    """
    top = min(c.size - 1, 2 * n)
    i = np.arange(1.0, n + top // 2 + 1)
    a = np.concatenate(([1.0], np.cumprod((2.0 * i - 1.0) / (2.0 * i))))
    t = 2.0 / ((2.0 * np.arange(a.size) + 1.0) * a)
    gram = np.zeros((offsets, n + 1))
    for d in range(offsets):
        g = gram[d, : n + 1 - d]
        high = min(top, 2 * n - d)
        for m in range(high - (high - d) % 2, d - 1, -2):
            # s - k = (m - d) / 2 and s - j = (m + d) / 2 are fixed; j >= s - k
            lo, q = (m - d) // 2, (m + d) // 2
            g[lo:] += (c[m] * a[q] * a[lo]) * a[: n + 1 - d - lo] * t[q + lo : n + 1 - d + q]
    return gram


def _shen_band(gram, width):
    """The Gram of phi_j = L_j - L_{j+2} as a lower band of offsets 0 .. width.

    ``gram`` holds a symmetric Legendre Gram by offset through width + 2,
    row d the entries G(j, j + d) for j = 0 .. n - d.  The band has order
    n - 1 and Fortran order (see GalerkinFamily); entry (k, j), k = j + d,
    is G(j, k) - G(j, k + 2) - G(j + 2, k) + G(j + 2, k + 2).
    """
    order = gram.shape[1] - 2
    band = np.zeros((width + 1, order), order="F")
    for d in range(width + 1):
        size = order - d
        # G(j + 2, j + d), read from the offset |d - 2|
        cross = gram[d - 2, 2 : 2 + size] if d >= 2 else gram[2 - d, d : d + size]
        band[d, :size] = gram[d, :size] - gram[d + 2, :size] - cross + gram[d, 2 : 2 + size]
    return band


def assemble_galerkin(interval, n=400):
    """Galerkin family on ``interval`` with the n - 1 functions of degree <= n.

    n runs from 4 (the least with interior structure) to _MAX_N.  On
    intervals shorter than about 1e-154 the stiffness overflows, on ones
    longer than about 1e154 it vanishes, and ValueError says so.

    B and M are the combination (_shen_band) of Legendre Grams that
    phi_j = L_j - L_{j+2} and phi_k make: B of the Legendre mass
    2 / (2j + 1), and M, without quadrature, of exp(2 beta) times the Grams
    of _exp_gram, since phi_j phi_k exp(2t) in the reference variable is
    exp(2 beta) phi_j phi_k exp(length (x - 1)).  Degree m of the exponential
    reaches offsets up to m + 2, so with the degrees below the cut of
    _exp_coefficients, M keeps offsets through the cut + 1 (20 at length 2,
    28 at 6, 280 at 1000): every entry dropped comes from degrees at or past
    the cut alone, and is below the rounding of the entries kept.  The four
    Grams cancel more as the interval grows, where exp(length (x - 1))
    crowds against x = 1: measured against quadrature, the kept entries are
    within 5 eps max|M| up to length 6, and about 17, 70 and 1600 eps max|M|
    at lengths 20, 100 and 1000.  The width depends on the length only and no
    entry depends on n, so the family at n is bitwise the leading block of
    the family at any larger n (see GalerkinFamily).
    """
    if not _whole(n):
        raise ValueError(f"n must be a whole number, got {n!r}")
    if not 4 <= n <= _MAX_N:
        raise ValueError(f"need 4 <= n <= {_MAX_N}, got {n}")
    order = n - 1
    # length^2 underflows to 0 on intervals shorter than about 1e-162, and
    # overflows to inf (a stiffness of 0) on ones longer than about 1e154
    square = interval.length * interval.length
    with np.errstate(over="ignore"):
        stiffness = (4.0 / square if square else math.inf) * (4.0 * np.arange(order) + 6.0)
    if not (np.all(np.isfinite(stiffness)) and stiffness[0] > 0.0):
        raise ValueError(
            f"the stiffness overflows or vanishes on an interval of length {interval.length!r}"
        )
    c = _exp_coefficients(interval.length)
    width = min(c.size + 1, order - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        weight_band = np.exp(2.0 * interval.beta) * _shen_band(_exp_gram(c, n, width + 3), width)
    if not np.all(np.isfinite(weight_band)):
        raise ValueError("exp(2t) overflows on the interval")
    legendre = np.zeros((5, n + 1))
    legendre[0] = 2.0 / (2.0 * np.arange(n + 1) + 1.0)
    return GalerkinFamily(stiffness, _shen_band(legendre, 2), weight_band)


@dataclass(frozen=True)
class TridiagOperator:
    """Symmetric tridiagonal matrix of order m, normally the finite-difference stencil.

    ``diag`` has shape (m,), or (m, k) for k matrices that share ``offdiag``
    (the FD operators of k couplings on one grid).
    """

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        diag = np.asarray(self.diag, dtype=float)
        offdiag = np.asarray(self.offdiag, dtype=float)
        if diag.ndim not in (1, 2) or diag.size < 1 or offdiag.shape != (diag.shape[0] - 1,):
            raise ValueError(
                f"need diag of shape (m,) or (m, k), m >= 1, and m-1 offdiagonals, "
                f"got {diag.shape}, {offdiag.shape}"
            )
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "offdiag", offdiag)

    @property
    def m(self):
        return self.diag.shape[0]


def assemble_fd(interval, coupling, m=2000):
    """Central-difference discretization with m interior points, spacing h.

    diag_i = 2/h^2 + coupling exp(2 t_i) on the ascending uniform interior
    grid, offdiag = -1/h^2.  ``coupling`` is a float, or a 1-D array of k
    couplings for k operators on one grid, with one diagonal column each.
    Second-order accurate; meant for Richardson extrapolation and Sturm
    counting, not for production eigenvalues.
    """
    for kappa in np.ravel(coupling):
        _real("coupling", kappa, low=0.0)
    coupling = np.asarray(coupling, dtype=float)
    if not _whole(m):
        raise ValueError(f"m must be a whole number of points, got {m!r}")
    if m < 3:
        raise ValueError(f"need m >= 3 interior points, got {m}")
    h = interval.length / (m + 1)
    # h^2 underflows to 0 for h below about 1e-162 and overflows above about 1e154
    square = h * h
    if not (square and 0.0 < 2.0 / square < math.inf):
        raise ValueError(f"the stencil 2 / h^2 overflows or vanishes at spacing h = {h!r}")
    t = interval.alpha + h * np.arange(1, m + 1)
    diag = 2.0 / square + np.multiply.outer(np.exp(2.0 * t), coupling)
    if not np.all(np.isfinite(diag)):
        raise ValueError("potential evaluates to a non-finite value on the grid")
    return TridiagOperator(diag=diag, offdiag=np.full(m - 1, -1.0 / square))
