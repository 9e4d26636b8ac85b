"""Tests for the Galerkin and finite-difference discretizations."""

import functools
import math
import time

import numpy as np
import pytest

from hyperlap import (
    Interval,
    TridiagOperator,
    assemble_fd,
    assemble_galerkin,
    sweep,
)
from hyperlap import sl_family
from hyperlap.discretize import _exp_coefficients
from hyperlap.eigen import lowest_pencil_eigenpairs
from hyperlap.lt_verify import _gauss_legendre

from conftest import band_to_dense, tridiag_band


def _shen_values(n, x):
    """Rows phi_k(x) = L_k(x) - L_{k+2}(x), k = 0 .. n-2, by the recurrence."""
    phi = np.empty((n - 1, x.size))
    p0, p1 = np.ones_like(x), x
    for k in range(n - 1):
        p2 = ((2 * k + 3) * x * p1 - (k + 1) * p0) / (k + 2)
        phi[k] = p0 - p2
        p0, p1 = p1, p2
    return phi


def _quadrature_mass(iv, n):
    """The dense exp(2t) mass by Gauss-Legendre quadrature.

    q = n + 17 + ceil(length) nodes are exact through degree 2q - 1: the
    degree 2n of phi_j phi_k, and 33 + 2 ceil(length) more for
    exp(length x), whose Legendre coefficients fall like (length / 2)^d / d!.
    """
    x, w = _gauss_legendre(n + 1 + 16 + math.ceil(iv.length))
    phi = _shen_values(n, x) * np.sqrt(w * np.exp(2.0 * iv.from_reference(x)))
    return phi @ phi.T


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(2.0, -1.0)
    with pytest.raises(ValueError):
        Interval(float("nan"), 1.0)


def test_interval_mapping():
    iv = Interval(0.5, 2.5)
    assert iv.length == 2.0
    assert np.allclose(iv.from_reference([-1.0, 0.0, 1.0]), [0.5, 1.5, 2.5])


def test_potential_validation():
    # the FD diagonal of coupling kappa is 2/h^2 + kappa exp(2t)
    op = assemble_fd(Interval(-1.0, 1.0), 9.0, m=3)
    assert np.array_equal(op.diag, 8.0 + 9.0 * np.exp(2.0 * op.nodes))
    for coupling in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match="coupling must be finite and >= 0"):
            assemble_fd(Interval(-1.0, 1.0), coupling, m=3)
    # a finite coupling whose potential overflows on the grid
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        assemble_fd(Interval(399.0, 401.0), 1.0, m=3)


def test_potential_width(monkeypatch):
    """Mode ell of a width-w sweep has coupling ell^2 (pi / w)^2.

    At width 2 pi that is (ell / 2)^2 exactly, and each mode is solved
    once, at resolution 2n.  The widths a sweep refuses are checked in
    test_sl_family.test_sweep_width_validation.
    """
    couplings = []

    def recorded(family, coupling, k, *start):
        couplings.append(coupling)
        return lowest(family, coupling, k, *start)

    lowest = sl_family._lowest
    monkeypatch.setattr(sl_family, "_lowest", recorded)
    table = sweep(Interval(-1.0, 1.0), 40.0, n=64, width=2.0 * np.pi)
    assert couplings == [ell * ell / 4.0 for ell in range(1, table.ell_max + 1)]


@pytest.mark.parametrize("q", [20, 400, 900])
def test_gauss_legendre_rule(q):
    x, w = _gauss_legendre(q)
    assert np.all(np.diff(x) > 0.0) and np.all(w > 0.0)
    for a in (0.5, 2.0, 5.0):
        exact = 2.0 * math.sinh(a) / a
        assert abs(np.sum(w * np.exp(a * x)) - exact) <= 1e-14 * exact


def test_galerkin_family_structure():
    fam = assemble_galerkin(Interval(-3.0, 2.0), 16)
    assert fam.order == 15
    assert fam.mass_band.shape == (3, 15) and fam.mass_band.flags.f_contiguous
    b = band_to_dense(fam.mass_band)
    assert np.count_nonzero(b) == 15 + 2 * 13
    # Shen's closed-form B is the Gram matrix of the basis
    x, w = _gauss_legendre(20)
    phi = _shen_values(16, x)
    assert np.allclose((phi * w) @ phi.T, b, rtol=0.0, atol=1e-14)
    # length 5 keeps offsets through 26, more than order 15 has
    assert fam.weight_band.shape == (15, 15) and fam.weight_band.flags.f_contiguous
    m = band_to_dense(fam.weight_band)
    assert np.all(np.linalg.eigvalsh(m) > 0.0)
    a = 2.0 * m + np.diag(fam.stiffness)
    band = fam.operator_band(2.0)
    for d in range(band.shape[0]):
        assert np.array_equal(band[d, : 15 - d], np.diag(a, -d))


@pytest.mark.parametrize(
    "alpha, beta", [(0.0, 1e-5), (0.0, 1.0), (-1.0, 1.0), (0.5, 5.5), (0.5, 6.5)]
)
@pytest.mark.parametrize("n", [64, 200, 400, 800])
def test_weight_band_drops_only_rounding(alpha, beta, n):
    """M keeps offsets through the coefficient cut + 1; the rest is rounding.

    Against a quadrature reference built here: every entry past the half
    bandwidth is at most 4 eps max|M|, and every kept entry of the closed
    form lies within 8 eps max|M| of the reference.  At length 1e-5 the
    cut is degree 3, and a band that stopped at offset 3 would drop the
    entries of about 7e3 eps max|M| that degree 2 puts at offset 4.
    """
    iv = Interval(alpha, beta)
    fam = assemble_galerkin(iv, n)
    dense = _quadrature_mass(iv, n)
    width = _exp_coefficients(iv.length).size + 1
    assert fam.weight_band.shape == (width + 1, n - 1)
    eps = np.finfo(float).eps
    offset = np.abs(np.subtract.outer(np.arange(n - 1), np.arange(n - 1)))
    kept = offset <= width
    scale = np.abs(dense).max()
    assert np.abs(dense[~kept]).max() <= 4.0 * eps * scale
    assert np.abs(band_to_dense(fam.weight_band) - dense)[kept].max() <= 8.0 * eps * scale


@functools.lru_cache(maxsize=None)
def _mp_gauss_legendre():
    """96 Gauss-Legendre nodes and weights at 50 digits: exact through degree 191."""
    mpmath = pytest.importorskip("mpmath")
    from mpmath.calculus.quadrature import GaussLegendre

    with mpmath.workdps(50):
        return GaussLegendre(mpmath.mp).calc_nodes(6, mpmath.mp.prec)


@pytest.mark.parametrize("alpha, beta", [(0.0, 0.1), (0.0, 1.0), (-1.0, 1.0), (0.5, 5.5), (0.5, 6.5)])
def test_weight_band_matches_exact_integrals(alpha, beta):
    """Every kept entry is within 4 eps max|M| of its 50-digit integral.

    At n = 24, phi_j phi_k has degree at most 48, so 96 nodes leave
    degree 143 for exp(length x), whose coefficients are below 1e-100 there.
    """
    mpmath = pytest.importorskip("mpmath")
    n = 24
    iv = Interval(alpha, beta)
    exact = np.zeros((n - 1, n - 1))
    with mpmath.workdps(50):
        total = [[mpmath.mpf(0)] * (n - 1) for _ in range(n - 1)]
        for x, w in _mp_gauss_legendre():
            p = [mpmath.mpf(1), x]
            for j in range(1, n + 1):
                p.append(((2 * j + 1) * x * p[j] - j * p[j - 1]) / (j + 1))
            phi = [p[k] - p[k + 2] for k in range(n - 1)]
            weight = w * mpmath.exp(2 * (alpha + (mpmath.mpf(beta) - alpha) * (x + 1) / 2))
            for j in range(n - 1):
                for k in range(j + 1):
                    total[j][k] += weight * phi[j] * phi[k]
        for j in range(n - 1):
            for k in range(j + 1):
                exact[j, k] = exact[k, j] = float(total[j][k])
    band = assemble_galerkin(iv, n).weight_band
    offset = np.abs(np.subtract.outer(np.arange(n - 1), np.arange(n - 1)))
    kept = offset < band.shape[0]
    error = np.abs(band_to_dense(band) - exact)[kept].max()
    assert error <= 4.0 * np.finfo(float).eps * np.abs(exact).max()


@pytest.mark.parametrize("length", [1e-3, 0.1, 2.0, 20.0, 100.0, 1000.0])
def test_exp_coefficients_are_legendre_coefficients(length):
    """c_m = (2m + 1) / 2 times the integral of L_m exp(length (x - 1)).

    The reference is a 2000-node Gauss-Legendre rule: exact through degree
    3999, and the coefficients of exp(length (x - 1)) past degree 2500 are
    far below 1e-300 at every length here.  Its nodes carry rounding of
    eps, which exp(length x) magnifies to about length eps, so the integrals
    c_m / (2m + 1) are compared within 2 (1 + length) eps c_0.
    """
    c = _exp_coefficients(length)
    assert np.all(np.isfinite(c)) and np.all(c >= 0.0)
    assert np.all(c[np.argmax(c) :] >= np.finfo(float).eps * c.max())
    # the leading coefficient is exact: (1 - exp(-2 length)) / (2 length)
    assert c[0] == -math.expm1(-2.0 * length) / (2.0 * length)
    x, w = _gauss_legendre(2000)
    f = w * np.exp(length * (x - 1.0))
    half_integrals = np.empty(c.size)
    p0, p1 = np.ones_like(x), x
    for m in range(c.size):
        half_integrals[m] = 0.5 * np.sum(p0 * f)
        p0, p1 = p1, ((2 * m + 3) * x * p1 - (m + 1) * p0) / (m + 2)
    error = np.abs(c / (2.0 * np.arange(c.size) + 1.0) - half_integrals).max()
    assert error <= 2.0 * (1.0 + length) * np.finfo(float).eps * c[0]


@pytest.mark.parametrize("alpha", [-1e-3, -20.0, -100.0, -1000.0, -2000.0])
def test_galerkin_edge_lengths(alpha):
    """Short and long intervals give a finite band quickly, with no NaN."""
    start = time.perf_counter()
    fam = assemble_galerkin(Interval(alpha, 0.0), 64)
    assert time.perf_counter() - start < 0.5
    assert np.all(np.isfinite(fam.weight_band)) and np.all(fam.weight_band[0] > 0.0)


def test_half_bandwidth_rule():
    """M keeps offsets through the coefficient cut + 1, whatever n is."""
    for alpha, width in ((-2.0, 20), (-6.0, 28)):
        assert _exp_coefficients(-alpha).size + 1 == width
        for n in (64, 800):
            assert assemble_galerkin(Interval(alpha, 0.0), n).weight_band.shape[0] == width + 1
    # a short n keeps every offset it has
    assert assemble_galerkin(Interval(-6.0, 0.0), 16).weight_band.shape[0] == 15
    # the cut grows like sqrt(length), far below e length / 2 = 135914
    assert _exp_coefficients(1e5).size < 3000


def test_long_interval_band():
    """Length 1000 keeps at most 300 offsets, not the whole matrix.

    Past their peak the coefficients fall like exp(-m^2 / 2000), long
    before the Miller start at e length / 2.
    """
    fam = assemble_galerkin(Interval(-1000.0, 0.0), 1024)
    assert fam.weight_band.shape[0] - 1 == _exp_coefficients(1000.0).size + 1 <= 300


@pytest.mark.parametrize("length", [1e-3, 0.1, 2.0, 6.0, 20.0, 100.0, 1000.0])
def test_band_cut_against_exact_coefficients(length):
    """Every kept c_m is within 2 (m + 1) eps relative of its 40-digit value,
    and the first degree dropped is the first past the peak below eps max c.

    c_m = (2m + 1) exp(-length) sqrt(pi / (2 length)) I_{m + 1/2}(length).
    Each of the m ratios in the product carries about one rounding.
    """
    mpmath = pytest.importorskip("mpmath")
    c = _exp_coefficients(length)
    cut = c.size
    with mpmath.workdps(40):
        x = mpmath.mpf(length)
        scale = mpmath.sqrt(mpmath.pi / (2 * x)) * mpmath.exp(-x)
        exact = np.array([
            float((2 * m + 1) * scale * mpmath.besseli(m + mpmath.mpf(1) / 2, x))
            for m in range(cut + 1)
        ])
    m = np.arange(cut)
    eps = np.finfo(float).eps
    assert np.all(np.abs(c - exact[:cut]) <= 2.0 * (m + 1) * eps * exact[:cut])
    peak = int(np.argmax(exact))
    assert np.all(exact[peak:cut] >= eps * exact.max())
    assert exact[cut] < eps * exact.max()


def _coefficients_from_the_old_start(length):
    """_exp_coefficients as first written: Miller's recurrence from e length / 2 + 70."""
    start = int(math.e * length / 2.0) + 70
    ratios = np.ones(start + 1)
    r = 0.0
    for m in range(start, 0, -1):
        r = 1.0 / ((2 * m + 1) / length + r)
        ratios[m] = r
    i0 = -math.expm1(-2.0 * length) / (2.0 * length)
    c = (2.0 * np.arange(start + 1) + 1.0) * (i0 * np.cumprod(ratios))
    peak = int(np.argmax(c))
    return c[: peak + int(np.argmax(c[peak:] < np.finfo(float).eps * c[peak]))]


@pytest.mark.parametrize("length", [1e-3, 0.1, 2.0, 20.0, 100.0, 300.0, 1e3, 1e4, 1e5, 1e6])
def test_exp_coefficients_start_grows_like_the_root_of_the_length(length):
    """The start near sqrt(200 length) loses nothing against the start at e length / 2.

    The coefficients are bitwise those of the old start, and their ratios
    r_m = c_m (2m - 1) / (c_{m-1} (2m + 1)) keep the proven bounds
    1 - (m + 1/2) / length <= r_m <= 1 / (1 + (m - 1/2) / length).
    """
    c = _exp_coefficients(length)
    assert np.array_equal(c, _coefficients_from_the_old_start(length))
    m = np.arange(1, c.size)
    r = c[1:] * (2.0 * m - 1.0) / (c[:-1] * (2.0 * m + 1.0))
    slack = 2.0 * (m + 1) * np.finfo(float).eps
    assert np.all(r >= (1.0 - (m + 0.5) / length) * (1.0 - slack))
    assert np.all(r <= (1.0 + slack) / (1.0 + (m - 0.5) / length))


def test_cheb_free_laplacian_spectrum():
    """With q = 0 on (-1, 1) the eigenvalues are (k pi / 2)^2."""
    # the name predates the Galerkin family; the check is unchanged
    fam = assemble_galerkin(Interval(-1.0, 1.0), 48)
    w = lowest_pencil_eigenpairs(fam.operator_band(0.0), fam.mass_band, 8)[0]
    exact = (np.arange(1, 9) * math.pi / 2.0) ** 2
    assert np.max(np.abs(w - exact) / exact) <= 1e-10


def test_galerkin_rejects_bad_input():
    with pytest.raises(ValueError):
        assemble_galerkin(Interval(-1.0, 1.0), 3)
    with pytest.raises(ValueError, match="need 4 <= n <= 4096, got 4097"):
        assemble_galerkin(Interval(-1.0, 1.0), 4097)
    with pytest.raises(ValueError):
        assemble_galerkin(Interval(0.0, 400.0), 16)  # exp(2t) overflows


def test_fd_matrix_entries():
    iv = Interval(-1.0, 1.0)
    op = assemble_fd(iv, 0.0, m=3)
    assert op.h == pytest.approx(0.5)
    assert np.allclose(op.nodes, [-0.5, 0.0, 0.5])
    assert np.allclose(op.diag, 8.0)
    assert np.allclose(op.offdiag, -4.0)


def test_fd_free_closed_form():
    """q = 0 eigenvalues are (4/h^2) sin^2(k pi / (2 (m+1)))."""
    m = 3
    op = assemble_fd(Interval(-1.0, 1.0), 0.0, m=m)
    w = np.linalg.eigvalsh(band_to_dense(tridiag_band(op)))
    k = np.arange(1, m + 1)
    exact = (4.0 / op.h**2) * np.sin(k * math.pi / (2.0 * (m + 1))) ** 2
    assert np.allclose(w, exact, rtol=1e-13)
    assert w[1] == pytest.approx(8.0)


def test_fd_second_order_and_richardson():
    """Error drops like h^2, and the 2-grid combination like h^4."""
    exact = math.pi**2 / 4.0
    iv = Interval(-1.0, 1.0)
    lo, hi = (
        np.linalg.eigvalsh(band_to_dense(tridiag_band(assemble_fd(iv, 0.0, m=m))))[0]
        for m in (50, 101)
    )
    err_lo = abs(lo - exact)
    err_hi = abs(hi - exact)
    # m = 101 halves h relative to m = 50
    assert err_hi == pytest.approx(err_lo / 4.0, rel=0.05)
    extrap = (4.0 * hi - lo) / 3.0
    assert abs(extrap - exact) <= 1e-3 * err_hi


def test_fd_rejects_tiny_m():
    with pytest.raises(ValueError):
        assemble_fd(Interval(-1.0, 1.0), 0.0, m=2)


def test_tridiag_synthetic_construction():
    op = TridiagOperator(diag=np.array([2.0, 2.0, 2.0]), offdiag=np.array([1.0, 1.0]))
    assert op.m == 3
    dense = band_to_dense(tridiag_band(op))
    assert np.allclose(dense, dense.T)
    assert dense[0, 1] == 1.0 and dense[2, 1] == 1.0 and dense[0, 2] == 0.0


def test_tridiag_size_validation():
    with pytest.raises(ValueError):
        TridiagOperator(diag=np.array([1.0, 2.0]), offdiag=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        TridiagOperator(diag=np.array([]), offdiag=np.array([]))
