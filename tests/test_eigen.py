"""Tests for the banded pencil solver and the Sturm counts of the FD oracle."""

import math

import numpy as np
import pytest

from hyperlap import eigen
from hyperlap._lapack import dpbtrs
from hyperlap.eigen import _sturm_counts
from hyperlap import (
    ConvergenceError,
    Interval,
    TridiagOperator,
    assemble_fd,
    assemble_galerkin,
)

from conftest import (
    band_to_dense,
    dense_spectrum,
    fd_eigenvalues,
    pencil_eigenpairs,
    tridiag_band,
)


def _fd_op(m, ell=0):
    return assemble_fd(Interval(-1.0, 1.0), ell ** 2, m=m)


def _fd_exact(m):
    """The eigenvalues of the free FD operator _fd_op(m): h = 2 / (m + 1) on (-1, 1)."""
    h = 2.0 / (m + 1)
    k = np.arange(1, m + 1)
    return (4.0 / h**2) * np.sin(k * math.pi / (2.0 * (m + 1))) ** 2


def _fd_band(m, ell=0):
    """The FD operator of _fd_op(m, ell) as a lower band, with the identity as b."""
    return tridiag_band(_fd_op(m, ell)), np.ones((1, m), order="F")


def test_lowest_pencil_matches_fd_closed_form():
    a, b = _fd_band(50)
    w = pencil_eigenpairs(a, b, 6)[0]
    assert np.allclose(w, _fd_exact(50)[:6], rtol=1e-13, atol=0.0)
    # a b scaled by 2 halves every eigenvalue
    assert np.allclose(pencil_eigenpairs(a, 2.0 * b, 6)[0], 0.5 * w, rtol=1e-13)


def test_lowest_pencil_is_deterministic():
    """Repeated runs are bitwise equal, from the fixed start and from a
    neighbouring coupling's Ritz vectors, and the two starts agree to rounding."""
    fam = assemble_galerkin(Interval(-1.0, 1.0), 128)
    near = pencil_eigenpairs(fam.operator_band(36.0), fam.mass_band, 10)[1]
    values = []
    for start in (None, near):
        runs = [pencil_eigenpairs(fam.operator_band(50.0), fam.mass_band, 9, start)
                for _ in range(3)]
        for nu, x in runs[1:]:
            assert np.array_equal(runs[0][0], nu) and np.array_equal(runs[0][1], x)
        values.append(runs[0][0])
    cold, warm = values
    assert np.max(np.abs(warm - cold) / cold) <= 1e-13


def test_lowest_pencil_full_order_is_exact():
    """k = order - 1 runs the basis to the full order, so every value is exact."""
    fam = assemble_galerkin(Interval(-1.0, 1.0), 13)
    assert fam.order == 12
    for kappa in (0.0, 3.0, 400.0):
        got = pencil_eigenpairs(fam.operator_band(kappa), fam.mass_band, 11)[0]
        dense = dense_spectrum(fam, kappa)
        assert np.max(np.abs(got - dense[:11]) / dense[:11]) <= 1e-13


def test_lowest_pencil_breakdown_finds_repeated_values():
    """Two copies of one FD block: every eigenvalue is double.

    In exact arithmetic each Krylov space would hold one copy and Lanczos
    would break down once it is exhausted.  In floating point the
    orthogonalized residual there is small but not zero (1.8e-6 after the
    eleventh step), so Lanczos goes on from it and never takes the restart
    branch, for k = 3, 6 and 19 alike.  The restart branch is tested by
    test_lowest_pencil_start_spanning_an_invariant_subspace[0.0].
    """
    a, b = _fd_band(10)
    twice = np.zeros((2, 20), order="F")
    twice[0] = np.tile(a[0], 2)
    twice[1, :9] = twice[1, 10:19] = a[1, :9]
    exact = np.repeat(_fd_exact(10), 2)
    for k in (3, 6, 19):
        nu, x = pencil_eigenpairs(twice, np.ones((1, 20), order="F"), k)
        assert np.max(np.abs(nu - exact[:k]) / exact[:k]) <= 1e-13
        assert np.max(np.abs(x.T @ x - np.eye(k))) <= 1e-12


@pytest.mark.parametrize("mix", [eigen._START_MIX, 0.0])
def test_lowest_pencil_start_spanning_an_invariant_subspace(monkeypatch, mix):
    """A start made of the pencil's own eigenvectors still gives the k lowest values.

    The pencil is diagonal, so its eigenvectors are unit vectors.  With the
    fixed vector mixed in, as a sweep starts, the start only nears their
    span.  Unmixed it spans an invariant subspace: every Lanczos vector lies
    in it, step k leaves rounding only, and Lanczos breaks down and goes on
    from a fresh vector.
    """
    monkeypatch.setattr(eigen, "_START_MIX", mix)
    a = np.asfortranarray(np.arange(1.0, 21.0)[None, :])
    b = np.ones((1, 20), order="F")
    for k in (1, 3, 6):
        nu, x = pencil_eigenpairs(a, b, k, np.eye(20)[:, :k])
        assert np.max(np.abs(nu - np.arange(1.0, k + 1.0)) / nu) <= 1e-13
        assert np.max(np.abs(x.T @ x - np.eye(k))) <= 1e-12


@pytest.mark.parametrize(
    "alpha, beta, n, kappa, k",
    [(-1.0, 1.0, 400, 50.0, 9), (-1.0, 1.0, 800, 1000.0, 30), (0.5, 6.5, 200, 100.0, 12)],
)
def test_lowest_pencil_ritz_vectors(alpha, beta, n, kappa, k):
    """The Ritz vectors are b-orthonormal and meet the stopping rule.

    The rule bounds the residual of the transformed operator,
    ||a^-1 b x - x / nu||_b <= 1e-9 / nu: that is nu b x - a x in the norm
    ||a^-1 . ||_b, at most 1e-9 ||x||_b.  The plain residual
    ||a x - nu b x|| is not bounded so: the next Lanczos vector is rich in
    the high modes, which a amplifies (up to 3e-7 nu ||b x|| here).
    """
    fam = assemble_galerkin(Interval(alpha, beta), n)
    a = band_to_dense(fam.operator_band(kappa))
    b = band_to_dense(fam.mass_band)
    nu, x = pencil_eigenpairs(fam.operator_band(kappa), fam.mass_band, k)
    assert x.shape == (fam.order, k)
    assert np.max(np.abs(x.T @ b @ x - np.eye(k))) <= 1e-12
    r = np.linalg.solve(a, b @ x) - x / nu
    assert np.all(np.sqrt(np.sum(r * (b @ r), axis=0)) <= 1e-9 / nu)


@pytest.mark.parametrize(
    "alpha, beta, bound",
    [
        (-1.0, 1.0, 1e-13),
        # weight exp(2t) spans e^12 here: either route is good to about
        # eps e^12 = 3.6e-11 against the exact eigenvalues of the matrices
        (0.5, 6.5, 4e-11),
    ],
)
@pytest.mark.parametrize("n", [400, 800])
def test_lowest_pencil_matches_dense(alpha, beta, bound, n):
    """The Lanczos stopping rule keeps every value at the dense solver's accuracy.

    k = 150 is what the first mode of a sweep to cutoff 5e4 on (-1, 1)
    asks for.  At kappa 1e5 the weight spanning e^12 leaves the two routes
    about 6e-11 apart, past the bound, so that kappa is checked on (-1, 1)
    alone.
    """
    fam = assemble_galerkin(Interval(alpha, beta), n)
    kappas = [0.0, 1.0, 100.0, 1000.0, 5000.0]
    if beta - alpha <= 2.0:
        kappas.append(1e5)
    for kappa in kappas:
        dense = dense_spectrum(fam, kappa)
        for k in (1, 22, 150):
            got = pencil_eigenpairs(fam.operator_band(kappa), fam.mass_band, k)[0]
            assert np.max(np.abs(got - dense[:k]) / dense[:k]) <= bound


def test_lowest_pencil_free_spectrum():
    """At kappa 0 on (-1, 1) the 100 lowest values are (j pi / 2)^2, with no dense solve."""
    fam = assemble_galerkin(Interval(-1.0, 1.0), 400)
    got = pencil_eigenpairs(fam.operator_band(0.0), fam.mass_band, 100)[0]
    exact = (np.arange(1, 101) * math.pi / 2.0) ** 2
    assert np.max(np.abs(got - exact) / exact) <= 1e-13


def test_lowest_pencil_failures(monkeypatch):
    a, b = _fd_band(20)
    with pytest.raises(ValueError):
        pencil_eigenpairs(a, b, 20)  # Lanczos needs k < order
    with pytest.raises(ValueError):
        pencil_eigenpairs(a, b, 0)
    with pytest.raises(ConvergenceError, match="Cholesky of a"):
        pencil_eigenpairs(-a, b, 3)  # not positive definite
    with pytest.raises(ConvergenceError, match="Cholesky of b"):
        pencil_eigenpairs(a, -b, 3)

    def no_convergence(*args):
        return np.empty((args[0].size, args[2].size)), 1

    monkeypatch.setattr(eigen, "dstein", no_convergence)
    with pytest.raises(ConvergenceError, match="Ritz solve failed"):
        pencil_eigenpairs(a, b, 3)


@pytest.mark.parametrize("kd", [0, 1, 20])
@pytest.mark.parametrize("order", [1, 5, 12, 399])
def test_upper_band_copy_solves_like_the_lower_factor(kd, order):
    """The upper-storage copy is L^T entry for entry, with zeros in the
    unused corner, and dpbtrs solves on it as on the lower factor, also
    where the half bandwidth reaches past the order."""
    rng = np.random.default_rng(kd * 1000 + order)
    band = np.zeros((kd + 1, order), order="F")
    for d in range(1, min(kd, order - 1) + 1):
        band[d, : order - d] = rng.uniform(-1.0, 1.0, order - d)
    band[0] = 2.0 * kd + 1.0 + rng.uniform(0.0, 1.0, order)  # diagonally dominant
    chol = eigen._cholesky(band, "a")
    upper = eigen._upper_band(chol)
    assert upper.shape == chol.shape and upper.flags.f_contiguous
    lower_dense = np.zeros((order, order))
    upper_dense = np.zeros((order, order))
    for d in range(kd + 1):
        for j in range(order):
            if j + d < order:
                lower_dense[j + d, j] = chol[d, j]
            if j >= d:
                upper_dense[j - d, j] = upper[kd - d, j]
            else:
                assert upper[kd - d, j] == 0.0
    assert np.array_equal(upper_dense, lower_dense.T)
    rhs = np.sin(1.0 + np.arange(order))
    x_lower, info_lower = dpbtrs(chol, rhs, lower=1)
    x_upper, info_upper = dpbtrs(upper, rhs, lower=0)
    assert info_lower == info_upper == 0
    assert np.allclose(x_upper, x_lower, rtol=1e-13, atol=0.0)
    assert np.allclose(upper_dense.T @ (upper_dense @ x_upper), rhs, rtol=1e-12, atol=1e-12)


def test_sturm_identity_counts():
    counts = _sturm_counts(np.ones(7), np.zeros(6), [2.0, 0.5, 1.0])
    assert list(counts) == [7, 0, 0]  # strict at 1


def test_sturm_fd_example():
    op = _fd_op(3)
    # eigenvalues 2.343, 8, 13.657
    assert list(_sturm_counts(op.diag, op.offdiag ** 2, [9.0, 8.0, 100.0])) == [2, 1, 3]


def test_sturm_survives_zero_pivot():
    # analytic spectrum {2 - sqrt(3), 2, 2 + sqrt(3)}; lam = 1 zeroes the
    # first pivot and lam = 2 is an exact eigenvalue hitting a later pivot
    counts = _sturm_counts(np.array([1.0, 2.0, 3.0]), np.ones(2), [1.0, 2.0, 3.0])
    assert list(counts) == [1, 1, 2]


def test_sturm_count_random_cross_check():
    rng = np.random.default_rng(20260814)
    op = _fd_op(200, ell=1)
    w = np.linalg.eigvalsh(band_to_dense(tridiag_band(op)))
    lams = rng.uniform(0.0, float(w[-1]) * 1.1, size=20)
    counts = _sturm_counts(op.diag, op.offdiag ** 2, lams)
    assert list(counts) == [int(np.sum(w < lam)) for lam in lams]


def test_sturm_batched_matches_per_matrix():
    # columns of the batch share the off-diagonal; the synthetic matrix has
    # the exact eigenvalue 2, and lam = 1 zeroes its first pivot
    synthetic = [np.array([1.0, 2.0, 3.0]), np.array([3.0, 2.0, 1.0])]
    cases = [(synthetic[0], 2.0), (synthetic[0], 1.0), (synthetic[1], 2.0),
             (synthetic[0], 3.0)]
    diag = np.stack([d for d, _ in cases], axis=1)
    got = _sturm_counts(diag, np.ones(2), [lam for _, lam in cases])
    want = [_sturm_counts(d, np.ones(2), [lam])[0] for d, lam in cases]
    assert list(got) == want == [1, 1, 1, 2]

    rng = np.random.default_rng(5)
    ops = [_fd_op(200, ell) for ell in (0, 1, 5, 5)]
    lams = rng.uniform(0.0, 2000.0, size=len(ops))
    diag = np.stack([op.diag for op in ops], axis=1)
    got = _sturm_counts(diag, ops[0].offdiag ** 2, lams)
    assert list(got) == [_sturm_counts(op.diag, op.offdiag ** 2, [lam])[0]
                         for op, lam in zip(ops, lams)]


def test_bisection_matches_closed_form():
    """The tests' FD Richardson reference, LAPACK's Sturm bisection
    (conftest.fd_eigenvalues), meets the free closed form, and its window
    is open at lo and closed at hi."""
    m = 40
    op = _fd_op(m)
    exact = _fd_exact(m)
    spec = fd_eigenvalues(op, 0.0, float(exact[-1]) + 1.0)
    assert spec.size == m
    assert np.all(np.abs(spec - exact) <= 1e-10 * np.maximum(1.0, exact))

    op = TridiagOperator(diag=np.array([1.0, 2.0, 3.0]), offdiag=np.zeros(2))
    windows = [(1.0, 3.0), (0.0, 3.0), (3.0, 4.0)]
    assert [fd_eigenvalues(op, lo, hi).size for lo, hi in windows] == [2, 3, 0]
