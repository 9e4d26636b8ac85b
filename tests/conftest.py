import time

import numpy as np
import pytest
import scipy.linalg

from hyperlap import Interval, eigen, sweep

# (number, description, passed, detail) tuples filled by the acceptance tests
CRITERION_RESULTS = []


def band_to_dense(band):
    """The dense symmetric matrix of a LAPACK lower band."""
    order = band.shape[1]
    a = np.zeros((order, order))
    i = np.arange(order)
    for d, row in enumerate(band):
        a[i[d:], i[: order - d]] = row[: order - d]
        a[i[: order - d], i[d:]] = row[: order - d]
    return a


def tridiag_band(op):
    """A TridiagOperator as a two-row LAPACK lower band."""
    band = np.zeros((2, op.m), order="F")
    band[0] = op.diag
    band[1, :-1] = op.offdiag
    return band


def pencil_eigenpairs(a_band, b_band, k, start=None):
    """lowest_pencil_eigenpairs of the pencil of two LAPACK lower bands.

    The bands are factored by eigen._cholesky, as the sweep factors them,
    so a matrix that is not positive definite raises ConvergenceError
    naming it ("a" or "b").
    """
    factor = eigen._cholesky(a_band, "a")
    return eigen.lowest_pencil_eigenpairs(factor, eigen._cholesky(b_band, "b"), k, start)


def dense_spectrum(family, coupling):
    """All n - 1 Galerkin eigenvalues nu of one mode, ascending, by a dense solve.

    The reference that keeps tests of the banded Lanczos route and the
    sweep independent of them: the bands become dense matrices, and LAPACK
    solves the inverse pencil B x = mu (K + kappa M) x with nu = 1/mu.
    Factoring the well-conditioned K + kappa M instead of B keeps the
    large-order solves accurate to rounding.
    """
    a = coupling * band_to_dense(family.weight_band) + np.diag(family.stiffness)
    mu = scipy.linalg.eigh(band_to_dense(family.mass_band), a, eigvals_only=True)
    return 1.0 / mu[::-1]


def fd_eigenvalues(op, lo, hi):
    """Eigenvalues of a finite-difference TridiagOperator in (lo, hi], ascending.

    The Richardson reference of the tests: LAPACK's Sturm bisection
    (stebz) at its tightest tolerance, independent of the Galerkin and
    Lanczos route and of the sweep's own Sturm counts.
    """
    return scipy.linalg.eigvalsh_tridiagonal(
        op.diag,
        op.offdiag,
        select="v",
        select_range=(lo, hi),
        lapack_driver="stebz",
        tol=2 * np.finfo(float).tiny,
    )


def bessel_sign_change(nu, kappa, alpha, beta, dps, rel=1e-10):
    """Whether the exact Dirichlet determinant changes sign across nu (1 +- rel).

    z = sqrt(kappa) e^t turns -psi'' + kappa exp(2t) psi = nu psi into the
    modified Bessel equation of order i mu, mu = sqrt(nu), with the real
    solutions K_{i mu}(z) and Re I_{i mu}(z).  So the true eigenvalues of
    coupling kappa on (alpha, beta) are the zeros in nu of

        f(nu) = Re[K_{i mu}(a) I_{i mu}(b) - K_{i mu}(b) I_{i mu}(a)],

    a = sqrt(kappa) e^alpha, b = sqrt(kappa) e^beta, evaluated by mpmath at
    ``dps`` digits.  It shares nothing with the Galerkin or FD code; it is
    a high-precision check, not interval arithmetic.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        a = mpmath.sqrt(kappa) * mpmath.exp(alpha)
        b = mpmath.sqrt(kappa) * mpmath.exp(beta)

        def f(x):
            order = 1j * mpmath.sqrt(x)
            return mpmath.re(
                mpmath.besselk(order, a) * mpmath.besseli(order, b)
                - mpmath.besselk(order, b) * mpmath.besseli(order, a)
            )

        return f(mpmath.mpf(nu) * (1 - rel)) * f(mpmath.mpf(nu) * (1 + rel)) < 0


@pytest.fixture(scope="session")
def full_table():
    """The certified cutoff-1000 sweep on (-1, 1) plus its build time."""
    t0 = time.time()
    table = sweep(Interval(-1.0, 1.0), 1000.0, tol=1e-10, n=400)
    return table, time.time() - t0


@pytest.fixture
def criterion():
    """Recorder that prints one PASS/FAIL line and then asserts."""

    def record(num, desc, ok, detail=""):
        ok = bool(ok)
        CRITERION_RESULTS.append((num, desc, ok, detail))
        suffix = f" ({detail})" if detail else ""
        line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {desc}{suffix}"
        print(line)
        assert ok, line

    return record


def pytest_terminal_summary(terminalreporter):
    if not CRITERION_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num, desc, ok, detail in sorted(CRITERION_RESULTS):
        state = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        terminalreporter.write_line(f"[criterion {num}] {state}: {desc}{suffix}")
