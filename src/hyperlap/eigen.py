"""Eigenvalue backends.

The pencil route solves the Galerkin family: spectral-transformation
Lanczos on the banded pencil gives the few lowest eigenvalues that the
certified solves need.  Lanczos stops at a residual of 1e-9 relative, not
at rounding: a Ritz value's error is quadratic in its residual, so the
values stay within about 1e-16 relative.  The tridiagonal route is a
self-contained Sturm-sequence bisection, kept free of LAPACK on purpose so
it never shares a failure mode with the pencil.  Every route returns its
eigenvalues as a plain ascending float64 array.
"""

import numpy as np
from scipy.linalg.blas import dsbmv
from scipy.linalg.lapack import dpbtrf, dtbtrs

from .errors import ConvergenceError

# bisection sweeps before ConvergenceError; each one halves every bracket
_MAX_SWEEPS = 200

# Lanczos stops once every wanted Ritz value theta has a residual
# ||r|| <= _RESIDUAL_TOL * |theta|.  The nearest eigenvalue mu then obeys
# |theta - mu| <= ||r||^2 / delta (Kato-Temple; Parlett, The Symmetric
# Eigenvalue Problem, 11.7), delta the gap from theta to the rest of the
# spectrum.  For one 1D mode the wanted mu_j = 1 / nu_j (j <= 200) have
# relative gaps delta / theta >= 1e-2, so each value is within
# 1e-18 / 1e-2 = 1e-16 relative: far below the 1e-13 floor of the
# certification tolerance, with a quarter to a third fewer operator
# applications than a residual at rounding level needs.
_RESIDUAL_TOL = 1e-9


def lowest_pencil_eigenvalues(a_band, b_band, k):
    """The k smallest eigenvalues nu of a x = nu b x, ascending, for banded a and b.

    ``a_band`` and ``b_band`` are the LAPACK lower bands of symmetric
    positive definite matrices (row d holds offset d).  With a = L L^T
    from the banded Cholesky, ARPACK's Lanczos finds the k greatest
    eigenvalues mu of L^-1 b L^-T, and nu = 1 / mu (Ericsson and Ruhe's
    spectral transformation): O(order * bandwidth) work per step.  It
    stops once every wanted Ritz value theta has ||r|| <= 1e-9 |theta|,
    so |theta - mu| <= ||r||^2 / delta keeps it within about 1e-16
    relative (see _RESIDUAL_TOL).  The start vector is fixed, so
    repeated runs give identical values.  A failed factorization or a
    Lanczos run that does not converge raises ConvergenceError.
    """
    # deferred: scipy.sparse.linalg is heavy, and importing hyperlap needs none of it
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    order = a_band.shape[1]
    if not 1 <= k < order:
        raise ValueError(f"need 1 <= k < order {order}, got {k}")
    chol, info = dpbtrf(a_band, lower=1)
    if info != 0:
        raise ConvergenceError(f"banded Cholesky failed at leading minor {info}")
    b_width = b_band.shape[0] - 1

    def apply(x):
        y = dtbtrs(chol, x, uplo="L", trans="T")[0]
        return dtbtrs(chol, dsbmv(b_width, 1.0, b_band, y, lower=1), uplo="L")[0]

    op = LinearOperator((order, order), matvec=apply, dtype=float)
    try:
        mu = eigsh(
            op, k=k, which="LA", tol=_RESIDUAL_TOL, v0=np.sin(1.0 + np.arange(order)),
            return_eigenvectors=False,
        )
    except ArpackError as exc:
        raise ConvergenceError(f"Lanczos eigensolve failed: {exc}") from exc
    return np.sort(1.0 / mu)


def _sturm_counts(diag, off2, lams):
    """Number of eigenvalues strictly below each value in ``lams``.

    ``diag`` has shape (m,) for one matrix, or (m, k) for k matrices that
    share ``off2``, one per entry of ``lams``.  Vectorized over ``lams``;
    the recurrence d_i = (a_i - lam) - b_{i-1}^2/d_{i-1} counts sign
    changes of the leading-principal-minor ratios.  A vanishing
    pivot is nudged to a tiny positive value so an exact tie is not counted
    as below (the count stays strict); overflow to +-inf in the next step is
    benign (the pivot after that recovers).
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    count = np.zeros(lams.shape, dtype=np.int64)
    d = np.ones_like(lams)
    tiny = 1e-300
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for i in range(diag.shape[0]):
            if i == 0:
                d = diag[0] - lams
            else:
                d = (diag[i] - lams) - off2[i - 1] / d
            d = np.where(d == 0.0, tiny, d)
            count += d < 0.0
    return count


def sturm_count(op, lam):
    """Number of eigenvalues of a TridiagOperator strictly below lam."""
    lam = float(lam)
    if not np.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam!r}")
    off2 = op.offdiag ** 2
    return int(_sturm_counts(op.diag, off2, np.array([lam]))[0])


def tridiag_eigenvalues(op, lo, hi):
    """Eigenvalues of a TridiagOperator in (lo, hi], ascending, by Sturm bisection.

    Each eigenvalue is bracketed to width 1e-12 * max(1, |value|).
    Deliberately independent of the pencil route.
    """
    lo = float(lo)
    hi = float(hi)
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValueError(f"need finite lo < hi, got ({lo!r}, {hi!r})")
    off2 = op.offdiag ** 2
    radius = np.zeros(op.m)
    radius[:-1] += np.abs(op.offdiag)
    radius[1:] += np.abs(op.offdiag)
    gmin = float(np.min(op.diag - radius))
    gmax = float(np.max(op.diag + radius))

    n_lo = int(_sturm_counts(op.diag, off2, np.array([np.nextafter(lo, np.inf)]))[0])
    n_hi = int(_sturm_counts(op.diag, off2, np.array([np.nextafter(hi, np.inf)]))[0])
    k = n_hi - n_lo
    if k == 0:
        return np.empty(0)

    lows = np.full(k, max(lo, gmin - 1.0))
    highs = np.full(k, min(hi, gmax + 1.0))
    # global 1-based indices of the wanted eigenvalues
    targets = np.arange(n_lo + 1, n_hi + 1)
    for _ in range(_MAX_SWEEPS):
        mids = 0.5 * (lows + highs)
        tol = 1e-12 * np.maximum(1.0, np.abs(mids))
        if np.all(highs - lows <= tol):
            break
        counts = _sturm_counts(op.diag, off2, mids)
        go_right = counts < targets
        lows = np.where(go_right, mids, lows)
        highs = np.where(go_right, highs, mids)
    else:
        raise ConvergenceError(f"bisection failed to localize after {_MAX_SWEEPS} sweeps")
    return 0.5 * (lows + highs)
