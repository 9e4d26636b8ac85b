"""Discretizations of -d^2/dt^2 + q(t) with Dirichlet ends.

Two routes: the Shen-Legendre Galerkin family (symmetric banded matrices
built once per interval, mode by mode only the coupling changes; plain
solves and the certified sweep use it) and second-order central finite
differences (symmetric tridiagonal, used as the cross-checking oracle).
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

# largest Galerkin resolution n: at 4096 the basis table of _weighted_basis
# holds about 135 MB
_MAX_N = 4096


@dataclass(frozen=True)
class Interval:
    """Open interval (alpha, beta) on the t axis."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and np.isfinite(self.beta)):
            raise ValueError("interval endpoints must be finite")
        if not self.alpha < self.beta:
            raise ValueError(
                f"interval needs alpha < beta, got ({self.alpha}, {self.beta})"
            )

    @property
    def length(self):
        return self.beta - self.alpha

    def from_reference(self, x):
        """Affine image of reference coordinates x in [-1, 1]."""
        x = np.asarray(x, dtype=float)
        return self.alpha + (self.beta - self.alpha) * (x + 1.0) / 2.0


@dataclass(frozen=True)
class PotentialSpec:
    """Potential q(t) = coupling * exp(2 t), coupling = (ell pi / width)^2.

    ``ell`` indexes the transverse modes of the separated strip problem of
    the given ``width``, whose transverse eigenvalues are the couplings;
    width pi gives exactly ell^2.
    """

    ell: int = 0
    width: float = math.pi

    def __post_init__(self):
        if self.ell != int(self.ell) or self.ell < 0:
            raise ValueError(
                f"mode index must be a nonnegative integer, got {self.ell!r}"
            )
        if not (math.isfinite(self.width) and self.width > 0.0):
            raise ValueError(
                f"strip width must be positive and finite, got {self.width!r}"
            )

    @property
    def coupling(self):
        return float(self.ell) ** 2 * (math.pi / self.width) ** 2

    def evaluate(self, t):
        q = self.coupling * np.exp(2.0 * np.asarray(t, dtype=float))
        if not np.all(np.isfinite(q)):
            raise ValueError("potential evaluates to a non-finite value on the grid")
        return q


def _legendre_pair(q, x):
    """L_{q-1}(x) and L_q(x) by the three-term recurrence."""
    p0, p1 = np.ones_like(x), x
    for j in range(1, q):
        p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
    return p0, p1


def _gauss_legendre(q):
    """Gauss-Legendre nodes and weights on [-1, 1], in O(q) memory.

    Golub-Welsch nodes (eigenvalues of the Jacobi matrix) polished by one
    Newton step on L_q; weights 2 / ((1 - x^2) L_q'(x)^2), with
    (1 - x^2) L_q' = q (L_{q-1} - x L_q).  Keeping the tiny L_q term makes
    the weights exact to rounding (about 1e-16 on smooth integrands).
    """
    k = np.arange(1.0, q)
    x = eigvalsh_tridiagonal(np.zeros(q), k / np.sqrt(4.0 * k * k - 1.0))
    p0, p1 = _legendre_pair(q, x)
    x = x - p1 * (1.0 - x * x) / (q * (p0 - x * p1))
    p0, p1 = _legendre_pair(q, x)
    return x, 2.0 * (1.0 - x * x) / (q * (p0 - x * p1)) ** 2


def _shen_values(n, x):
    """Rows phi_k(x) = L_k(x) - L_{k+2}(x), k = 0 .. n-2."""
    phi = np.empty((n - 1, x.size))
    p0, p1 = np.ones_like(x), x
    for k in range(n - 1):
        p2 = ((2 * k + 3) * x * p1 - (k + 1) * p0) / (k + 2)
        phi[k] = p0 - p2
        p0, p1 = p1, p2
    return phi


def _band_to_dense(band):
    """The dense, Fortran-ordered symmetric matrix of a LAPACK lower band."""
    order = band.shape[1]
    a = np.zeros((order, order), order="F")
    i = np.arange(order)
    for d, row in enumerate(band):
        a[i[d:], i[: order - d]] = row[: order - d]
        a[i[: order - d], i[d:]] = row[: order - d]
    return a


@dataclass(frozen=True)
class GalerkinFamily:
    """Shen-Legendre Galerkin matrices of -psi'' + kappa exp(2t) psi on an interval.

    The basis is phi_k = L_k - L_{k+2} (k = 0 .. n-2) in the reference
    variable x of t = alpha + length (x + 1) / 2, so every function vanishes
    at both ends.  With all integrals taken in x (dt / dx cancels from the
    eigenproblem), mode kappa is the symmetric pencil (K + kappa M) c = nu B c:

    - ``stiffness``: the diagonal of K, (4 / length^2) (4k + 6);
    - ``mass_band``: B, nonzero only on the diagonal and at offset 2
      (Shen's closed form);
    - ``weight_band``: the exp(2t) mass matrix M, banded to rounding.

    Both bands are LAPACK lower bands, Fortran-ordered: row d holds the
    entries (j + d, j) in its first order - d columns.
    """

    interval: Interval
    n: int
    stiffness: np.ndarray
    mass_band: np.ndarray
    weight_band: np.ndarray

    @property
    def order(self):
        return self.stiffness.size

    def mass(self):
        """B as a new dense Fortran-ordered matrix."""
        return _band_to_dense(self.mass_band)

    def operator(self, kappa):
        """K + kappa M as a new dense Fortran-ordered matrix."""
        a = kappa * _band_to_dense(self.weight_band)
        a[np.diag_indices(self.order)] += self.stiffness
        return a

    def operator_band(self, kappa):
        """K + kappa M as a new lower band."""
        a = kappa * self.weight_band
        a[0] += self.stiffness
        return a


def _half_bandwidth(length):
    """Half bandwidth of the exp(2t) mass: past it the entries are rounding.

    M_jk integrates phi_j phi_k against exp(length x) (times a constant),
    and only the Legendre components of exp(length x) of degree at least
    |j - k| - 2 reach offset |j - k|.  Those fall like (length / 2)^d / d!;
    the first d where that is under 2^-60 (20 at length 2, 30 at length 6),
    plus 4, covers the 2 and leaves 2 to spare.
    """
    d, term = 0, 1.0
    while term >= 2.0 ** -60:
        d += 1
        term *= length / (2.0 * d)
    return d + 4


def _weighted_basis(interval, n):
    """Rows phi_k sqrt(W) at Gauss-Legendre nodes: M = sum over nodes of their products.

    W is the quadrature weight times exp(2t).  q nodes are exact through
    degree 2q - 1, which covers the degree 2n of phi_j phi_k plus 2 * spare
    more for exp(length * x), whose Legendre coefficients fall like
    (length / 2)^d / d!.
    """
    spare = 16 + math.ceil(interval.length)
    x, w = _gauss_legendre(n + 1 + spare)
    with np.errstate(over="ignore"):
        weight = w * np.exp(2.0 * interval.from_reference(x))
    if not np.all(np.isfinite(weight)):
        raise ValueError("exp(2t) overflows on the interval")
    phi = _shen_values(n, x)
    phi *= np.sqrt(weight)
    return phi


def assemble_galerkin(interval, n=400):
    """Galerkin family on ``interval`` with the n - 1 functions of degree <= n.

    n runs from 4 (the least with interior structure) to _MAX_N.

    M is integrated by Gauss-Legendre quadrature and kept to the half
    bandwidth of _half_bandwidth: every entry dropped is below the rounding
    of the entries kept.
    """
    if not 4 <= n <= _MAX_N:
        raise ValueError(f"need 4 <= n <= {_MAX_N}, got {n}")
    order = n - 1
    k = np.arange(order, dtype=float)
    phi = _weighted_basis(interval, n)
    width = min(_half_bandwidth(interval.length), order - 1)
    weight_band = np.zeros((width + 1, order), order="F")
    for d in range(width + 1):
        weight_band[d, : order - d] = np.einsum("ij,ij->i", phi[d:], phi[: order - d])
    mass_band = np.zeros((3, order), order="F")
    mass_band[0] = 2.0 / (2.0 * k + 1.0) + 2.0 / (2.0 * k + 5.0)
    mass_band[2, :-2] = -2.0 / (2.0 * k[:-2] + 5.0)
    return GalerkinFamily(
        interval=interval,
        n=n,
        stiffness=(4.0 / interval.length ** 2) * (4.0 * k + 6.0),
        mass_band=mass_band,
        weight_band=weight_band,
    )


@dataclass(frozen=True)
class TridiagOperator:
    """Symmetric tridiagonal matrix, normally the finite-difference stencil.

    Only diag/offdiag are required so synthetic operators can be built
    directly in tests; assemble_fd also records the grid spacing and nodes.
    """

    diag: np.ndarray
    offdiag: np.ndarray
    h: float = 1.0
    nodes: Optional[np.ndarray] = None

    def __post_init__(self):
        diag = np.asarray(self.diag, dtype=float)
        offdiag = np.asarray(self.offdiag, dtype=float)
        if diag.size < 1 or offdiag.size != diag.size - 1:
            raise ValueError(
                f"need m >= 1 and m-1 offdiagonals, got {diag.size}, {offdiag.size}"
            )
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "offdiag", offdiag)

    @property
    def m(self):
        return self.diag.size

    def to_dense(self):
        a = np.diag(self.diag)
        idx = np.arange(self.m - 1)
        a[idx, idx + 1] = self.offdiag
        a[idx + 1, idx] = self.offdiag
        return a


def assemble_fd(interval, pot, m=2000):
    """Central-difference discretization with m interior points, spacing h.

    diag_i = 2/h^2 + q(t_i) on the ascending uniform interior grid,
    offdiag = -1/h^2.  Second-order accurate; meant for Richardson
    extrapolation and Sturm counting, not for production eigenvalues.
    """
    if m < 3:
        raise ValueError(f"need m >= 3 interior points, got {m}")
    h = interval.length / (m + 1)
    t = interval.alpha + h * np.arange(1, m + 1)
    diag = 2.0 / h ** 2 + pot.evaluate(t)
    offdiag = np.full(m - 1, -1.0 / h ** 2)
    return TridiagOperator(diag=diag, offdiag=offdiag, h=h, nodes=t)
