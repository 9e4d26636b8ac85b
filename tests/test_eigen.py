"""Tests for the symmetric pencil and tridiagonal eigenvalue backends."""

import math

import numpy as np
import pytest
import scipy.sparse.linalg

from hyperlap.eigen import _sturm_counts
from hyperlap import (
    ConvergenceError,
    Interval,
    TridiagOperator,
    assemble_fd,
    assemble_galerkin,
    lowest_pencil_eigenvalues,
    sturm_count,
    tridiag_eigenvalues,
)

from conftest import dense_spectrum


def _fd_op(m, ell=0):
    return assemble_fd(Interval(-1.0, 1.0), ell ** 2, m=m)


def _fd_exact(m, h):
    k = np.arange(1, m + 1)
    return (4.0 / h**2) * np.sin(k * math.pi / (2.0 * (m + 1))) ** 2


def _fd_band(m):
    """The FD operator of _fd_op(m) as a lower band, with the identity as b."""
    op = _fd_op(m)
    a = np.zeros((2, m), order="F")
    a[0] = op.diag
    a[1, :-1] = op.offdiag
    return op, a, np.ones((1, m), order="F")


def test_lowest_pencil_matches_fd_closed_form():
    op, a, b = _fd_band(50)
    w = lowest_pencil_eigenvalues(a, b, 6)
    assert np.allclose(w, _fd_exact(50, op.h)[:6], rtol=1e-13, atol=0.0)
    # a b scaled by 2 halves every eigenvalue
    assert np.allclose(lowest_pencil_eigenvalues(a, 2.0 * b, 6), 0.5 * w, rtol=1e-13)


def test_lowest_pencil_is_deterministic():
    fam = assemble_galerkin(Interval(-1.0, 1.0), 128)
    runs = [lowest_pencil_eigenvalues(fam.operator_band(50.0), fam.mass_band, 9)
            for _ in range(3)]
    assert all(np.array_equal(runs[0], r) for r in runs[1:])


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
            got = lowest_pencil_eigenvalues(fam.operator_band(kappa), fam.mass_band, k)
            assert np.max(np.abs(got - dense[:k]) / dense[:k]) <= bound


def test_lowest_pencil_free_spectrum():
    """At kappa 0 on (-1, 1) the 100 lowest values are (j pi / 2)^2, with no dense solve."""
    fam = assemble_galerkin(Interval(-1.0, 1.0), 400)
    got = lowest_pencil_eigenvalues(fam.operator_band(0.0), fam.mass_band, 100)
    exact = (np.arange(1, 101) * math.pi / 2.0) ** 2
    assert np.max(np.abs(got - exact) / exact) <= 1e-13


def test_lowest_pencil_failures(monkeypatch):
    op, a, b = _fd_band(20)
    with pytest.raises(ValueError):
        lowest_pencil_eigenvalues(a, b, 20)  # Lanczos needs k < order
    with pytest.raises(ValueError):
        lowest_pencil_eigenvalues(a, b, 0)
    with pytest.raises(ConvergenceError):
        lowest_pencil_eigenvalues(-a, b, 3)  # not positive definite

    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("forced", np.empty(0), None)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    with pytest.raises(ConvergenceError, match="Lanczos"):
        lowest_pencil_eigenvalues(a, b, 3)


def test_sturm_identity_counts():
    op = TridiagOperator(diag=np.ones(7), offdiag=np.zeros(6))
    assert sturm_count(op, 2.0) == 7
    assert sturm_count(op, 0.5) == 0
    assert sturm_count(op, 1.0) == 0  # strict


def test_sturm_fd_example():
    op = _fd_op(3)
    # eigenvalues 2.343, 8, 13.657
    assert sturm_count(op, 9.0) == 2
    assert sturm_count(op, 8.0) == 1
    assert sturm_count(op, 100.0) == 3


def test_sturm_survives_zero_pivot():
    # analytic spectrum {2 - sqrt(3), 2, 2 + sqrt(3)}; lam = 1 zeroes the
    # first pivot and lam = 2 is an exact eigenvalue hitting a later pivot
    op = TridiagOperator(diag=np.array([1.0, 2.0, 3.0]), offdiag=np.array([1.0, 1.0]))
    assert sturm_count(op, 1.0) == 1
    assert sturm_count(op, 2.0) == 1
    assert sturm_count(op, 3.0) == 2


def test_sturm_count_random_cross_check():
    rng = np.random.default_rng(20260814)
    op = _fd_op(200, ell=1)
    w = np.sort(np.linalg.eigvalsh(op.to_dense()))
    for lam in rng.uniform(0.0, float(w[-1]) * 1.1, size=20):
        assert sturm_count(op, float(lam)) == int(np.sum(w < lam))


def test_sturm_batched_matches_per_matrix():
    # columns of the batch share the off-diagonal; the synthetic matrix has
    # the exact eigenvalue 2, and lam = 1 zeroes its first pivot
    synthetic = [np.array([1.0, 2.0, 3.0]), np.array([3.0, 2.0, 1.0])]
    cases = [(synthetic[0], 2.0), (synthetic[0], 1.0), (synthetic[1], 2.0),
             (synthetic[0], 3.0)]
    diag = np.stack([d for d, _ in cases], axis=1)
    got = _sturm_counts(diag, np.ones(2), [lam for _, lam in cases])
    want = [sturm_count(TridiagOperator(diag=d, offdiag=np.ones(2)), lam)
            for d, lam in cases]
    assert list(got) == want == [1, 1, 1, 2]

    rng = np.random.default_rng(5)
    ops = [_fd_op(200, ell) for ell in (0, 1, 5, 5)]
    lams = rng.uniform(0.0, 2000.0, size=len(ops))
    diag = np.stack([op.diag for op in ops], axis=1)
    got = _sturm_counts(diag, ops[0].offdiag ** 2, lams)
    assert list(got) == [sturm_count(op, lam) for op, lam in zip(ops, lams)]


def test_sturm_rejects_nonfinite():
    with pytest.raises(ValueError):
        sturm_count(_fd_op(3), float("inf"))


def test_bisection_identity():
    op = TridiagOperator(diag=np.ones(6), offdiag=np.zeros(5))
    spec = tridiag_eigenvalues(op, 0.0, 2.0)
    assert len(spec) == 6
    assert np.allclose(spec, 1.0, atol=1e-12)


def test_bisection_matches_closed_form():
    m = 40
    op = _fd_op(m)
    exact = _fd_exact(m, op.h)
    spec = tridiag_eigenvalues(op, 0.0, float(exact[-1]) + 1.0)
    assert len(spec) == m
    tol = 1e-10 * np.maximum(1.0, exact)
    assert np.all(np.abs(spec - exact) <= tol)


def test_bisection_agrees_with_dense():
    op = _fd_op(60, ell=2)
    dense = np.linalg.eigvalsh(op.to_dense())
    spec = tridiag_eigenvalues(op, 0.0, float(dense[-1]) + 1.0)
    assert len(spec) == 60
    assert np.max(np.abs(spec - dense) / np.maximum(1.0, dense)) <= 1e-10


def test_bisection_window_semantics():
    """The window is open at lo and closed at hi."""
    op = TridiagOperator(diag=np.array([1.0, 2.0, 3.0]), offdiag=np.zeros(2))
    assert len(tridiag_eigenvalues(op, 1.0, 3.0)) == 2
    assert len(tridiag_eigenvalues(op, 0.0, 3.0)) == 3
    assert len(tridiag_eigenvalues(op, 3.0, 4.0)) == 0


def test_bisection_empty_window():
    op = _fd_op(10)
    spec = tridiag_eigenvalues(op, -5.0, -1.0)
    assert len(spec) == 0
    assert isinstance(spec, np.ndarray) and spec.dtype == np.float64


def test_bisection_count_consistency():
    rng = np.random.default_rng(42)
    op = _fd_op(120, ell=1)
    for lam in rng.uniform(1.0, 400.0, size=20):
        lam = float(lam)
        n_below = sturm_count(op, lam)
        spec = tridiag_eigenvalues(op, 0.0, lam)
        # bisection returns everything in (0, lam]; boundary hits are measure zero here
        assert len(spec) == n_below


def test_bisection_validates_window():
    op = _fd_op(5)
    with pytest.raises(ValueError):
        tridiag_eigenvalues(op, 2.0, 1.0)
    with pytest.raises(ValueError):
        tridiag_eigenvalues(op, 0.0, float("inf"))
