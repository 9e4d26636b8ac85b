"""Tests for the eigenvalue family, certification, and the sweep table."""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.special

from hyperlap import (
    CertificationError,
    EigenTable,
    IncompleteTableError,
    Interval,
    PotentialSpec,
    SLProblem,
    assemble_fd,
    dense_eigenvalues,
    find_ell_max,
    lambda_from_nu,
    nu_from_lambda,
    solve_certified,
    solve_problem,
    sweep,
    table_rows_from_csv,
    tridiag_eigenvalues,
)
from hyperlap import sl_family

IV = Interval(-1.0, 1.0)


def _free_problem():
    return SLProblem(interval=IV, pot=PotentialSpec(0))


def _mode_problem(ell):
    return SLProblem(interval=IV, pot=PotentialSpec(ell))


def test_lambda_shift():
    assert lambda_from_nu(10.0) == 10.25
    assert lambda_from_nu(10.0, dim=3) == 11.0
    assert nu_from_lambda(lambda_from_nu(7.5)) == 7.5


def test_solve_problem_free_spectrum():
    spec = solve_problem(_free_problem(), n=64, cutoff=100.0)
    exact = (np.arange(1, 7) * math.pi / 2.0) ** 2
    assert len(spec) == 6
    assert np.max(np.abs(spec.values - exact) / exact) <= 1e-10


def test_solve_problem_without_cutoff():
    spec = solve_problem(_free_problem(), n=32)
    assert len(spec) == 31


def test_certified_free_spectrum():
    spec = solve_certified(_free_problem(), 1000.0, tol=1e-10, n=400)
    exact = (np.arange(1, 21) * math.pi / 2.0) ** 2
    assert len(spec) == 20
    assert np.max(np.abs(spec.values - exact) / exact) <= 1e-10


def test_certified_against_richardson_oracle():
    """Mode 1 eigenvalues cross-checked with the extrapolated FD values."""
    spec = solve_certified(_mode_problem(1), 100.0, tol=1e-10, n=128)
    assert len(spec) >= 5
    prob = _mode_problem(1)
    hi = float(spec.values[-1]) * 1.2
    coarse = tridiag_eigenvalues(assemble_fd(IV, prob.pot, m=2000), 0.0, hi).values
    fine = tridiag_eigenvalues(assemble_fd(IV, prob.pot, m=4001), 0.0, hi).values
    k = len(spec)
    extrap = (4.0 * fine[:k] - coarse[:k]) / 3.0
    assert np.max(np.abs(spec.values - extrap) / extrap) <= 1e-8


def test_certified_empty_below_ground_state():
    spec = solve_certified(_free_problem(), 2.0, n=64)
    assert len(spec) == 0


def test_certified_rejects_unresolvable_request():
    # resolution 8 cannot certify anything near 500
    with pytest.raises(CertificationError):
        solve_certified(_free_problem(), 500.0, tol=1e-10, n=8)


def test_certified_tol_floor():
    with pytest.raises(ValueError):
        solve_certified(_free_problem(), 10.0, tol=1e-14)


def test_certified_rejects_nonfinite_cutoff():
    with pytest.raises(ValueError):
        solve_certified(_free_problem(), float("inf"))


def test_find_ell_max_defining_property():
    cutoff = 50.0
    lm = find_ell_max(IV, cutoff, n=64)
    assert lm >= 2
    above = solve_problem(_mode_problem(lm), n=64).values[0]
    below = solve_problem(_mode_problem(lm - 1), n=64).values[0]
    assert above > cutoff >= below


def test_find_ell_max_tiny_cutoff():
    # even the first mode clears 2, so nothing is retained
    assert find_ell_max(IV, 2.0, n=64) == 1


@pytest.mark.parametrize(
    "interval, cutoff, n, width",
    [
        (IV, 1.0, 64, math.pi),
        (IV, 50.0, 64, math.pi),
        (IV, 1000.0, 64, math.pi),
        (IV, 300.0, 128, 2.0 * math.pi),
        (IV, 1e4, 64, math.pi),
        (Interval(-3.0, 2.0), 200.0, 64, math.pi),
        (Interval(-3.0, 2.0), 500.0, 96, 2.0 * math.pi),
    ],
)
def test_find_ell_max_matches_ground_state_scan(interval, cutoff, n, width):
    ell = 1
    while True:
        pot = PotentialSpec(ell, width=width)
        if solve_problem(SLProblem(interval, pot), n=n).values[0] > cutoff:
            break
        ell += 1
    assert find_ell_max(interval, cutoff, n=n, width=width) == ell


def test_find_ell_max_three_solves(monkeypatch):
    calls = []

    def counted(matrix, *args, **kwargs):
        calls.append(matrix.shape)
        return dense_eigenvalues(matrix, *args, **kwargs)

    monkeypatch.setattr(sl_family, "dense_eigenvalues", counted)
    for cutoff, width in ((1000.0, math.pi), (300.0, 2.0 * math.pi), (2.0, math.pi)):
        calls.clear()
        find_ell_max(IV, cutoff, n=64, width=width)
        assert 1 <= len(calls) <= 3


def test_find_ell_max_validation():
    with pytest.raises(ValueError):
        find_ell_max(IV, -1.0)
    with pytest.raises(ValueError):
        find_ell_max(IV, float("nan"))
    with pytest.raises(ValueError):
        find_ell_max(IV, 1e30, n=64)  # would need a mode past 2^22


def _p1_ritz_ground_state(ell, alpha=-1.0, beta=1.0, m=400):
    """Rayleigh-Ritz upper bound on nu1(ell) from P1 hat functions.

    Uniform mesh of m elements; the exp(2t) mass is integrated by 8-point
    Gauss-Legendre per element, accurate to rounding for these smooth
    integrands, so the smallest Ritz value bounds nu1 from above.
    """
    h = (beta - alpha) / m
    x, w = np.polynomial.legendre.leggauss(8)
    s, w = 0.5 * (x + 1.0), 0.5 * h * w
    q = ell**2 * np.exp(2.0 * (alpha + h * (np.arange(m)[:, None] + s)))
    m00 = (q * w * (1.0 - s) ** 2).sum(axis=1)
    m01 = (q * w * (1.0 - s) * s).sum(axis=1)
    m11 = (q * w * s**2).sum(axis=1)
    # interior node j is the right end of element j-1 and the left of element j
    a_diag = 2.0 / h + m11[:-1] + m00[1:]
    a_off = -1.0 / h + m01[1:-1]
    b_diag = np.full(m - 1, 2.0 * h / 3.0)
    b_off = np.full(m - 2, h / 6.0)
    a = np.diag(a_diag) + np.diag(a_off, 1) + np.diag(a_off, -1)
    b = np.diag(b_diag) + np.diag(b_off, 1) + np.diag(b_off, -1)
    return float(scipy.linalg.eigh(a, b, eigvals_only=True, subset_by_index=[0, 0])[0])


def _airy_ground_state_lower(ell, t0, alpha=-1.0):
    """Lower bound on nu1(ell) from the tangent of exp(2t) at t0.

    exp(2t) >= exp(2 t0) (1 + 2 (t - t0)) by convexity, so q(t) >= c0 + c1 s
    with s = t - alpha >= 0.  Dirichlet monotonicity in the domain then
    compares with the half-line Airy ground state c0 + c1^(2/3) |a1|.
    """
    g = ell**2 * math.exp(2.0 * t0)
    c0 = g * (1.0 + 2.0 * (alpha - t0))
    a1 = scipy.special.ai_zeros(1)[0][0]
    return c0 + (2.0 * g) ** (2.0 / 3.0) * abs(a1)


def test_mode_cutoff_1000_bracketed_without_solver():
    # Independent of the collocation and FD routes: 70 < ell_max <= 72 for
    # cutoff 1000 on (-1, 1), so the first mode clearing 1000 is not 50.
    free = (math.pi / 2.0) ** 2
    assert free <= _p1_ritz_ground_state(0) <= free * (1.0 + 1e-5)
    assert _p1_ritz_ground_state(50) < 1000.0
    assert _p1_ritz_ground_state(70) < 1000.0
    assert _airy_ground_state_lower(72, t0=-0.87) > 1000.0


def test_sweep_empty_table_is_legal():
    table = sweep(IV, 2.0, n=64, oracle_m=800)
    assert table.ell_max == 1
    assert table.entries == ()
    assert table.nus().size == 0


def test_sweep_small_cutoff_contents():
    table = sweep(IV, 40.0, n=64, oracle_m=800)
    assert table.ell_max >= 2
    assert table.modes() == list(range(1, table.ell_max))
    nus = table.nus()
    assert nus.size > 0
    assert np.all(nus <= 40.0 * 1.05)
    # every retained mode is complete through the cutoff
    for ell in table.modes():
        vals = table.mode_values(ell)
        assert np.all(np.diff(vals) > 0.0)
    # ground states increase with the mode index
    firsts = [table.mode_values(ell)[0] for ell in table.modes()]
    assert np.all(np.diff(firsts) > 0.0)


def test_sweep_matches_richardson_oracle():
    table = sweep(IV, 40.0, n=64, oracle_m=800)
    for ell in table.modes():
        vals = table.mode_values(ell)
        pot = PotentialSpec(ell)
        hi = float(vals[-1]) * 1.2
        coarse = tridiag_eigenvalues(assemble_fd(IV, pot, m=1000), 0.0, hi).values
        fine = tridiag_eigenvalues(assemble_fd(IV, pot, m=2001), 0.0, hi).values
        k = vals.size
        extrap = (4.0 * fine[:k] - coarse[:k]) / 3.0
        assert np.max(np.abs(vals - extrap) / extrap) <= 1e-8


def test_sweep_deterministic():
    a = sweep(IV, 40.0, n=64, oracle_m=800)
    b = sweep(IV, 40.0, n=64, oracle_m=800)
    assert a.entries == b.entries
    assert a.ell_max == b.ell_max


def test_sweep_explicit_ell_max():
    adaptive = sweep(IV, 40.0, n=64, oracle_m=800)
    pinned = sweep(IV, 40.0, n=64, oracle_m=800, ell_max=adaptive.ell_max)
    assert pinned.entries == adaptive.entries


def test_sweep_rejects_incomplete_ell_max():
    with pytest.raises(IncompleteTableError):
        sweep(IV, 40.0, n=64, oracle_m=800, ell_max=1)


def test_sweep_validation():
    with pytest.raises(ValueError):
        sweep(IV, -5.0)
    with pytest.raises(ValueError):
        sweep(IV, 40.0, margin=-0.1)
    with pytest.raises(ValueError):
        sweep(IV, 40.0, n=64, ell_max=0)


def test_sweep_width_pi_matches_default():
    base = sweep(IV, 40.0, n=64, oracle_m=800)
    assert sweep(IV, 40.0, n=64, oracle_m=800, width=math.pi).entries == base.entries


def test_sweep_width_validation():
    for width in (0.0, -math.pi, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            sweep(IV, 40.0, n=64, width=width)
        with pytest.raises(ValueError):
            sweep(IV, 40.0, n=64, width=width, ell_max=5)


def test_table_query_semantics():
    table = sweep(IV, 40.0, n=64, oracle_m=800)
    full = table.nus()
    part = table.nus(through=10.0)
    assert np.all(part <= 10.0)
    assert part.size == np.sum(full <= 10.0)
    assert table.nus(through=40.0).size == np.sum(full <= 40.0)
    # rows in (cutoff, cutoff * (1 + margin)] are padding, not complete data
    for through in (40.0 * 1.001, 40.0 * 1.05, 40.0 * 1.05 + 1.0):
        with pytest.raises(IncompleteTableError):
            table.nus(through=through)


def test_table_csv_round_trip():
    table = sweep(IV, 40.0, n=64, oracle_m=800)
    text = table.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "ell,k,nu"
    assert len(lines) == len(table.entries) + 1
    assert table_rows_from_csv(text) == list(table.entries)


def test_table_csv_rejects_bad_header():
    with pytest.raises(ValueError):
        table_rows_from_csv("a,b,c\n1,1,2.0\n")


def _mini_table(entries, cutoff=10.0):
    return EigenTable(
        entries=entries, cutoff=cutoff, ell_max=3, resolution=16, tolerance=1e-8
    )


def test_table_invariant_violations():
    with pytest.raises(ValueError):
        _mini_table(((1, 2, 3.0), (1, 1, 2.0)))  # unsorted
    with pytest.raises(ValueError):
        _mini_table(((1, 2, 3.0),))  # branch indices must start at 1
    with pytest.raises(ValueError):
        _mini_table(((1, 1, 3.0), (1, 2, 2.5)))  # not increasing in k
    with pytest.raises(ValueError):
        _mini_table(((1, 1, 3.0), (2, 1, 2.0)))  # not increasing in ell
    with pytest.raises(ValueError):
        _mini_table(((1, 1, 99.0),))  # beyond the retention window


def test_table_valid_synthetic():
    table = _mini_table(((1, 1, 3.0), (1, 2, 7.0), (2, 1, 5.0)))
    assert table.modes() == [1, 2]
    assert np.allclose(table.nus(), [3.0, 5.0, 7.0])
    assert np.allclose(table.mode_values(1), [3.0, 7.0])
