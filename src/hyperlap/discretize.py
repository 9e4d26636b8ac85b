"""Discretizations of -d^2/dt^2 + q(t) with Dirichlet ends.

Two independent routes: Chebyshev collocation (spectral accuracy, dense
nonsymmetric matrix) and second-order central finite differences
(symmetric tridiagonal, used as the cross-checking oracle).
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np


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


def cheb_nodes(n):
    """Chebyshev extreme points cos(j pi / n), j = 0..n, descending from 1 to -1."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return np.cos(np.pi * np.arange(n + 1) / n)


def cheb_diff_matrix(n):
    """First-derivative collocation matrix on the nodes of ``cheb_nodes``.

    Off-diagonal entries are the standard barycentric ratios; the diagonal
    uses the negative-sum trick so each row annihilates constants exactly.
    """
    x = cheb_nodes(n)
    c = np.ones(n + 1)
    c[0] = 2.0
    c[-1] = 2.0
    c *= (-1.0) ** np.arange(n + 1)
    big_x = np.tile(x, (n + 1, 1)).T
    dx = big_x - big_x.T
    d = np.outer(c, 1.0 / c) / (dx + np.eye(n + 1))
    d -= np.diag(d.sum(axis=1))
    return d


@dataclass(frozen=True)
class ChebOperator:
    """Dense collocation matrix of -d^2/dt^2 + q with Dirichlet rows removed.

    ``nodes`` are the interior collocation points in t, strictly decreasing
    (the reference orientation 1 -> -1 is kept fixed so row/column meaning
    never flips between resolutions).
    """

    interval: Interval
    pot: PotentialSpec
    n: int
    nodes: np.ndarray
    matrix: np.ndarray

    @property
    def order(self):
        return self.matrix.shape[0]


def assemble_cheb(interval, pot, n=400):
    """Chebyshev collocation of -d^2/dt^2 + q on ``interval`` with n intervals.

    The second derivative is the square of the first-derivative matrix,
    scaled by the affine map factor 4/(beta - alpha)^2; Dirichlet conditions
    delete the two boundary rows and columns.
    """
    if n < 4:
        raise ValueError(f"need n >= 4 to have interior structure, got {n}")
    x = cheb_nodes(n)
    d = cheb_diff_matrix(n)
    d2 = d @ d
    scale = 4.0 / interval.length ** 2
    t_int = interval.from_reference(x[1:-1])
    a = -scale * d2[1:-1, 1:-1] + np.diag(pot.evaluate(t_int))
    return ChebOperator(interval=interval, pot=pot, n=n, nodes=t_int, matrix=a)


@dataclass(frozen=True)
class TridiagOperator:
    """Symmetric tridiagonal matrix, normally the finite-difference stencil.

    Only diag/offdiag/h are required so synthetic operators can be built
    directly in tests; assemble_fd fills in the grid metadata.
    """

    diag: np.ndarray
    offdiag: np.ndarray
    h: float = 1.0
    interval: Optional[Interval] = None
    pot: Optional[PotentialSpec] = None
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

    @property
    def order(self):
        return self.m

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
    return TridiagOperator(
        diag=diag, offdiag=offdiag, h=h, interval=interval, pot=pot, nodes=t
    )
