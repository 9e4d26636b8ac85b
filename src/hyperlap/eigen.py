"""Eigenvalue backends.

The pencil route solves the Galerkin family: spectral-transformation
Lanczos on the banded pencil gives the few lowest eigenpairs that the
certified solves need, with B-orthonormal Ritz vectors.  It is written
here on the banded LAPACK factorizations its caller holds, with full
reorthogonalization and no implicit restarts (see
lowest_pencil_eigenpairs).  The certified solves' oracle is a
Sturm-sequence count on the finite-difference tridiagonal, batched over
matrices that share an off-diagonal and kept free of LAPACK on purpose
so it never shares a failure mode with the pencil.

The LAPACK routines are scipy's compiled ones, which _lapack loads
without importing the scipy.linalg package.
"""

import math

import numpy as np

from ._lapack import dpbtrf, dpbtrs, dstein, dsterf, dtbtrs
from .errors import ConvergenceError

# Lanczos stops once every wanted Ritz pair (theta, x) of the transformed
# operator has a residual ||r||_b <= _RESIDUAL_TOL * theta, with
# r = a^-1 b x - theta x and x b-normalized (the Euclidean residual of
# R^T a^-1 R, see lowest_pencil_eigenpairs).  The operator is self-adjoint
# in the b inner product, so the nearest eigenvalue mu obeys
# |theta - mu| <= ||r||_b^2 / delta (Kato-Temple; Parlett, The Symmetric
# Eigenvalue Problem, 11.7), delta the gap from theta to the rest of the
# spectrum.  For one 1D mode the wanted mu_j = 1 / nu_j (j <= 200) have
# relative gaps delta / theta >= 1e-2, so each value is within
# 1e-18 / 1e-2 = 1e-16 relative: far below the 1e-13 floor of the
# certification tolerance, with a quarter to a third fewer operator
# applications than a residual at rounding level needs.
_RESIDUAL_TOL = 1e-9
# the first convergence check comes this many steps past k: no mode of
# the sweeps converges sooner (k + 13 to k + 68 from the fixed start,
# k + 8 to k + 60 from the previous mode's Ritz vectors, over the
# benchmark tables and (0.5, 6.5) to cutoff 1000)
_CHECK_LEAD = 8
# a warm start mixes in this share of the fixed start vector, so that no
# eigenvector is absent from it: 1e-3 cost about 10 % more steps than none
_START_MIX = 1e-5
# Daniel-Gragg-Kaufman-Stewart: a Gram-Schmidt pass that keeps less than
# this share of the norm is repeated, and a repeat that keeps less again
# leaves rounding only, an invariant subspace
_DGKS = 1.0 / math.sqrt(2.0)


def _ritz_pairs(alpha, beta, lo, hi):
    """Eigenvalues lo..hi (1-based, ascending) of the Lanczos tridiagonal, and eigenvectors.

    Root-free QL (dsterf) finds the values, to about eps relative on these
    graded matrices, and inverse iteration (dstein) only the vectors
    wanted: O(m) work per vector, where all of them would cost O(m^3).
    """
    m = alpha.size
    mu, info = dsterf(alpha, beta)
    if info == 0:
        split = np.zeros(m, dtype=np.int32)
        split[0] = m
        s, info = dstein(alpha, beta, mu[lo - 1 : hi], np.ones(m, dtype=np.int32), split)
    if info != 0:
        raise ConvergenceError(f"tridiagonal Ritz solve failed (info {info})")
    return mu[lo - 1 : hi], s


def _cholesky(band, name):
    """The banded Cholesky factor (dpbtrf, lower) of the matrix ``name``."""
    chol, info = dpbtrf(band, lower=1)
    if info != 0:
        raise ConvergenceError(f"banded Cholesky of {name} failed at leading minor {info}")
    return chol


def _upper_band(chol):
    """The lower band factor L copied to LAPACK upper band storage of L^T.

    Row d of the lower band (offset d) becomes row kd - d, shifted right
    by d: U[kd - d, j] = L[d, j - d].  dpbtrs solves about 1.6x faster on
    this copy than on L (OpenBLAS, kd 20: 20 against 33 us at order 799),
    while dpbtrf is about 10x slower in upper storage.  The rows are
    padded with kd + 1 zeros in front and read back at a row length one
    shorter, which shifts row d by d in one copy; the zeros fill the
    unused corner.  The result is Fortran ordered, the layout dpbtrs takes
    without copying.
    """
    rows, order = chol.shape
    padded = np.zeros((rows, order + rows))
    padded[:, rows:] = chol
    skewed = padded.ravel()[rows:].reshape(rows, order + rows - 1)
    return np.asfortranarray(skewed[::-1, :order])


def _unit(v):
    return v / math.sqrt(v @ v)


def lowest_pencil_eigenpairs(factor, root, k, start=None):
    """The k smallest eigenvalues nu of a x = nu b x, ascending, and their Ritz vectors.

    ``factor`` and ``root`` are the lower band Cholesky factors (dpbtrf,
    row d holds offset d) of symmetric positive definite matrices a and
    b = R R^T; the caller factors them once and may use them again (a
    sweep solves many pencils against one b, and reads the n pencil from
    the leading blocks of both).  Lanczos finds the k greatest eigenvalues
    mu of R^T a^-1 R, and nu = 1 / mu (Ericsson and Ruhe's spectral
    transformation): each step is one banded solve with a, by its banded
    Cholesky (dpbtrs), and two products with the narrow R; a's factor is
    copied once to upper band storage, where dpbtrs is faster (see
    _upper_band).  The basis is reorthogonalized in full (classical
    Gram-Schmidt, repeated by the DGKS rule) and never exceeds order
    vectors (134 MB at order 4095).  It stops once every wanted Ritz value
    theta has a residual <= 1e-9 theta (see _RESIDUAL_TOL), which keeps it
    within about 1e-16 relative; the check runs on the one pair least converged,
    and on all k only once that one passes.  A breakdown (an invariant
    subspace) goes on from a fresh start vector, and a basis of the full
    order gives the exact values.

    Lanczos starts from the fixed vector sin(1 + i), or, given ``start``,
    from the sum of its columns: b-orthonormal Ritz vectors of a nearby
    pencil (a sweep passes the previous mode's), mapped to R^T x, with
    _START_MIX of the fixed vector mixed in so that no eigenvector is
    absent.  Either way the result depends on the arguments alone, so
    repeated runs are bitwise equal; runs from different starts agree to
    rounding.

    Returns (nu, x): x holds the Ritz vectors as columns, x^T b x = I to
    rounding.
    """
    order = factor.shape[1]
    if not 1 <= k < order:
        raise ValueError(f"need 1 <= k < order {order}, got {k}")
    chol = _upper_band(factor)
    diag = root[0]
    offsets = [(d, root[d, :-d]) for d in range(1, root.shape[0]) if np.any(root[d])]

    def transpose_root(u):
        """R^T u."""
        v = diag * u
        for d, row in offsets:
            v[:-d] += row * u[d:]
        return v

    def apply(q):
        """R^T a^-1 R q."""
        u = diag * q
        for d, row in offsets:
            u[d:] += row * q[:-d]
        return transpose_root(dpbtrs(chol, u, lower=0, overwrite_b=1)[0])

    # rows are the Lanczos vectors; numpy maps pages as the rows are written
    basis = np.empty((order, order))
    alpha = np.empty(order)
    beta = np.zeros(order)
    fixed = _unit(np.sin(1.0 + np.arange(order)))
    if start is None:
        basis[0] = fixed
    else:
        basis[0] = _unit(_unit(transpose_root(start.sum(axis=1))) + _START_MIX * fixed)
    restarts = 0
    watch = 0  # the pair checked: 0 is the k-th greatest
    check = k + _CHECK_LEAD  # the next step that checks
    m = 0
    while True:
        r = apply(basis[m])
        prev = math.sqrt(r @ r)
        alpha[m] = 0.0
        span = basis[: m + 1]
        for _ in range(2):
            h = span @ r
            r -= h @ span
            alpha[m] += h[m]
            norm = math.sqrt(r @ r)
            if norm > _DGKS * prev:
                break
            prev = norm
        else:
            norm = 0.0
        m += 1
        if m == order:
            break
        if norm == 0.0:
            # an invariant subspace: go on from a fresh vector orthogonal to
            # it, one that keeps more than 1e-8 of its norm
            beta[m - 1] = 0.0
            while norm <= 1e-8 * math.sqrt(order):
                restarts += 1
                if restarts > order:
                    raise ConvergenceError("Lanczos found no vector outside its basis")
                r = np.sin(1.0 + (restarts + 1) * np.arange(order))
                for _ in range(2):
                    r -= (basis[:m] @ r) @ basis[:m]
                norm = math.sqrt(r @ r)
            basis[m] = r / norm
            continue
        beta[m - 1] = norm
        basis[m] = r / norm
        if m < check:
            continue
        lo = m - k + 1 + watch
        mu, s = _ritz_pairs(alpha[:m], beta[: m - 1], lo, lo)
        excess = norm * abs(s[-1, 0]) / (_RESIDUAL_TOL * mu[0])
        if excess <= 1.0:
            mu, s = _ritz_pairs(alpha[:m], beta[: m - 1], m - k + 1, m)
            excesses = norm * np.abs(s[-1]) / (_RESIDUAL_TOL * mu)
            if np.all(excesses <= 1.0):
                break
            watch = int(np.argmax(excesses))
            excess = excesses[watch]
        # a stalled residual takes many steps to fall, and one that falls
        # loses at most about a decade a step (0.5 to 1.4 in the sweeps'
        # modes): checking sooner seldom pays
        check = m + max(1, int(math.log10(excess)))
    if m == order:
        mu, s = _ritz_pairs(alpha, beta[: order - 1], order - k + 1, order)
    y = basis[:m].T @ s
    x = dtbtrs(root, y, uplo="L", trans="T")[0]
    return 1.0 / mu[::-1], x[:, ::-1]


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
    off2 = np.concatenate(([0.0], off2))  # the first pivot has no predecessor
    d = np.ones_like(lams)
    tiny = 1e-300
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for i in range(diag.shape[0]):
            d = (diag[i] - lams) - off2[i] / d
            d = np.where(d == 0.0, tiny, d)
            count += d < 0.0
    return count
