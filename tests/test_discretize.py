"""Tests for the Chebyshev and finite-difference discretizations."""

import math

import numpy as np
import pytest

from hyperlap import (
    Interval,
    PotentialSpec,
    TridiagOperator,
    assemble_cheb,
    assemble_fd,
    cheb_diff_matrix,
    cheb_nodes,
)


def _cheb_eigs(op):
    w = np.linalg.eigvals(op.matrix)
    assert np.max(np.abs(w.imag)) <= 1e-8 * (1.0 + np.max(np.abs(w.real)))
    return np.sort(w.real)


def test_nodes_small_orders():
    assert np.allclose(cheb_nodes(2), [1.0, 0.0, -1.0], atol=1e-15)
    s = math.sqrt(2.0) / 2.0
    assert np.allclose(cheb_nodes(4), [1.0, s, 0.0, -s, -1.0], atol=1e-15)


def test_nodes_descending_and_symmetric():
    x = cheb_nodes(17)
    assert x[0] == 1.0 and x[-1] == -1.0
    assert np.all(np.diff(x) < 0.0)
    assert np.allclose(x, -x[::-1], atol=1e-15)


def test_nodes_require_two_intervals():
    with pytest.raises(ValueError):
        cheb_nodes(1)


def test_diff_matrix_order_two_exact():
    d = cheb_diff_matrix(2)
    expected = np.array(
        [[1.5, -2.0, 0.5], [0.5, 0.0, -0.5], [-0.5, 2.0, -1.5]]
    )
    assert np.allclose(d, expected, atol=1e-14)


def test_diff_matrix_annihilates_constants():
    # entries grow like n^2, so judge the cancellation relative to them
    for n in (2, 8, 33, 64):
        d = cheb_diff_matrix(n)
        assert np.max(np.abs(d.sum(axis=1))) <= 1e-14 * np.max(np.abs(d))


def test_diff_matrix_exact_on_polynomials():
    x = cheb_nodes(12)
    d = cheb_diff_matrix(12)
    assert np.allclose(d @ x, np.ones_like(x), atol=1e-12)
    assert np.allclose(d @ x**2, 2.0 * x, atol=1e-12)
    assert np.allclose(d @ x**5, 5.0 * x**4, atol=1e-11)


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
    with pytest.raises(ValueError):
        PotentialSpec(ell=-1)
    q = PotentialSpec(ell=3)
    t = np.array([-1.0, 0.0, 0.5])
    assert np.allclose(q.evaluate(t), 9.0 * np.exp(2.0 * t))


def test_potential_width():
    t = np.array([-1.0, 0.0, 1.0])
    # coupling (2 pi / (2 pi))^2 = 1, exactly
    q = PotentialSpec(2, width=2.0 * np.pi)
    assert np.array_equal(q.evaluate(t), np.exp(2.0 * t))
    assert PotentialSpec(3).coupling == 9.0
    for width in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            PotentialSpec(1, width=width)
    with np.errstate(over="ignore"), pytest.raises(ValueError):
        PotentialSpec(1).evaluate([400.0])


def test_cheb_operator_shape_and_nodes():
    iv = Interval(-1.0, 1.0)
    op = assemble_cheb(iv, PotentialSpec(0), n=16)
    assert op.order == 15
    assert op.matrix.shape == (15, 15)
    # interior nodes keep the descending reference orientation
    assert np.all(np.diff(op.nodes) < 0.0)
    assert np.max(np.abs(op.nodes)) < 1.0


def test_cheb_free_laplacian_spectrum():
    """With q = 0 on (-1, 1) the eigenvalues are (k pi / 2)^2."""
    op = assemble_cheb(Interval(-1.0, 1.0), PotentialSpec(0), n=48)
    w = _cheb_eigs(op)
    exact = (np.arange(1, 9) * math.pi / 2.0) ** 2
    assert np.max(np.abs(w[:8] - exact) / exact) <= 1e-10


def test_cheb_translation_invariance_free_case():
    wa = _cheb_eigs(assemble_cheb(Interval(-1.0, 1.0), PotentialSpec(0), n=24))
    wb = _cheb_eigs(assemble_cheb(Interval(3.0, 5.0), PotentialSpec(0), n=24))
    assert np.allclose(wa[:6], wb[:6], rtol=1e-9)


def test_cheb_lowest_eigenvalue_bracketed():
    """Constant-potential comparison pins the ell = 1 ground state."""
    op = assemble_cheb(Interval(-1.0, 1.0), PotentialSpec(1), n=64)
    w = _cheb_eigs(op)
    base = math.pi**2 / 4.0
    assert base + math.exp(-2.0) < w[0] < base + math.exp(2.0)


def test_cheb_refinement_is_spectral():
    """Doubling n crushes the error until it hits the rounding floor."""
    iv = Interval(-1.0, 1.0)
    pot = PotentialSpec(1)
    ref = _cheb_eigs(assemble_cheb(iv, pot, n=256))[:6]
    err32 = np.abs(_cheb_eigs(assemble_cheb(iv, pot, n=32))[:6] - ref)
    err64 = np.abs(_cheb_eigs(assemble_cheb(iv, pot, n=64))[:6] - ref)
    floor = 5e-12 * np.maximum(1.0, np.abs(ref))
    assert np.all(err64 <= np.maximum(1e-3 * err32, floor))


def test_cheb_rejects_tiny_n():
    with pytest.raises(ValueError):
        assemble_cheb(Interval(-1.0, 1.0), PotentialSpec(0), n=3)


def test_fd_matrix_entries():
    iv = Interval(-1.0, 1.0)
    op = assemble_fd(iv, PotentialSpec(0), m=3)
    assert op.h == pytest.approx(0.5)
    assert np.allclose(op.nodes, [-0.5, 0.0, 0.5])
    assert np.allclose(op.diag, 8.0)
    assert np.allclose(op.offdiag, -4.0)


def test_fd_free_closed_form():
    """q = 0 eigenvalues are (4/h^2) sin^2(k pi / (2 (m+1)))."""
    m = 3
    op = assemble_fd(Interval(-1.0, 1.0), PotentialSpec(0), m=m)
    w = np.sort(np.linalg.eigvalsh(op.to_dense()))
    k = np.arange(1, m + 1)
    exact = (4.0 / op.h**2) * np.sin(k * math.pi / (2.0 * (m + 1))) ** 2
    assert np.allclose(w, exact, rtol=1e-13)
    assert w[1] == pytest.approx(8.0)


def test_fd_second_order_and_richardson():
    """Error drops like h^2, and the 2-grid combination like h^4."""
    exact = math.pi**2 / 4.0
    iv = Interval(-1.0, 1.0)
    pot = PotentialSpec(0)
    lo = np.sort(np.linalg.eigvalsh(assemble_fd(iv, pot, m=50).to_dense()))[0]
    hi = np.sort(np.linalg.eigvalsh(assemble_fd(iv, pot, m=101).to_dense()))[0]
    err_lo = abs(lo - exact)
    err_hi = abs(hi - exact)
    # m = 101 halves h relative to m = 50
    assert err_hi == pytest.approx(err_lo / 4.0, rel=0.05)
    extrap = (4.0 * hi - lo) / 3.0
    assert abs(extrap - exact) <= 1e-3 * err_hi


def test_fd_rejects_tiny_m():
    with pytest.raises(ValueError):
        assemble_fd(Interval(-1.0, 1.0), PotentialSpec(0), m=2)


def test_tridiag_synthetic_construction():
    op = TridiagOperator(diag=np.array([2.0, 2.0, 2.0]), offdiag=np.array([1.0, 1.0]))
    assert op.m == 3
    assert op.order == 3
    dense = op.to_dense()
    assert np.allclose(dense, dense.T)
    assert dense[0, 1] == 1.0 and dense[2, 1] == 1.0 and dense[0, 2] == 0.0


def test_tridiag_size_validation():
    with pytest.raises(ValueError):
        TridiagOperator(diag=np.array([1.0, 2.0]), offdiag=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        TridiagOperator(diag=np.array([]), offdiag=np.array([]))
