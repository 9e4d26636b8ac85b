"""Tests for the eigenvalue family, certification, and the sweep table."""

import math
import pathlib
import re

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from scipy.linalg.blas import dsbmv

from hyperlap import (
    CertificationError,
    EigenTable,
    IncompleteTableError,
    Interval,
    ProductDomain,
    assemble_fd,
    assemble_galerkin,
    family_table,
    solve_certified,
    sweep,
    table_rows_from_csv,
)
from hyperlap import eigen, sl_family
from hyperlap.eigen import lowest_pencil_eigenpairs
from hyperlap.cli import main

from conftest import band_to_dense, bessel_sign_change, dense_spectrum, fd_eigenvalues

IV = Interval(-1.0, 1.0)
COLLOCATION_1000 = pathlib.Path(__file__).parent / "data" / "collocation-1000.csv"


def _dense(interval, coupling, n):
    """All n - 1 Galerkin eigenvalues of one mode, by the dense reference solve."""
    return dense_spectrum(assemble_galerkin(interval, n), coupling)


# The uncertified plain solve (solve_problem) is gone.  The tests below keep
# its names: single-mode behaviour is checked on solve_certified, and where
# all n - 1 values serve as a reference, on the dense solve of the tests.


def test_solve_problem_free_spectrum():
    spec = solve_certified(IV, 0.0, 100.0, n=64)
    exact = (np.arange(1, 7) * math.pi / 2.0) ** 2
    assert len(spec) == 6
    assert np.max(np.abs(spec - exact) / exact) <= 1e-10


def test_solve_problem_rejects_bad_input():
    with pytest.raises(ValueError):
        solve_certified(IV, 0.0, 10.0, n=3)
    for cutoff in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            solve_certified(IV, 0.0, cutoff, n=16)
    for coupling in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match="coupling must be finite and >= 0"):
            solve_certified(IV, coupling, 10.0, n=16)


def test_solve_problem_uses_the_strip_width():
    # mode 2 of the width-2 pi strip has coupling (2 pi / (2 pi))^2 = 1, exactly
    wide = sweep(IV, 200.0, n=32, width=2.0 * math.pi).mode_values(2)
    single = solve_certified(IV, 1.0, 200.0, n=32)
    assert single.size > 0
    np.testing.assert_allclose(wide[: single.size], single, rtol=1e-12)


def test_solve_problem_ground_states_match_collocation_table():
    # every retained mode of the frozen table (see test_galerkin_matches_collocation)
    rows = table_rows_from_csv(COLLOCATION_1000.read_text())
    ground = {ell: nu for ell, k, nu in rows if k == 1}
    assert sorted(ground) == list(range(1, 71))
    for ell, nu in ground.items():
        got = solve_certified(IV, ell ** 2, 1050.0, n=128)[0]
        assert abs(got - nu) <= 1e-11 * nu


def test_solve_problem_translation_invariance_free_case():
    wa = solve_certified(Interval(-1.0, 1.0), 0.0, 100.0, n=24)
    wb = solve_certified(Interval(3.0, 5.0), 0.0, 100.0, n=24)
    assert wa.size == wb.size == 6
    assert np.allclose(wa[:6], wb[:6], rtol=1e-9)


def test_solve_problem_ground_state_bracketed():
    """Constant-potential comparison pins the ell = 1 ground state."""
    nu1 = solve_certified(IV, 1.0, 10.0, n=64)[0]
    base = math.pi**2 / 4.0
    assert base + math.exp(-2.0) < nu1 < base + math.exp(2.0)


def test_solve_problem_refinement_is_spectral():
    """Doubling n crushes the error until it hits the rounding floor.

    The Galerkin values are at rounding by n = 32, so the pair n = 8, 16
    is where the decay shows: the first six relative errors fall from up
    to 0.6 to at most 2e-6.
    """
    ref = _dense(IV, 1.0, 256)[:6]
    err8 = np.abs(_dense(IV, 1.0, 8)[:6] - ref)
    err16 = np.abs(_dense(IV, 1.0, 16)[:6] - ref)
    floor = 5e-12 * np.maximum(1.0, np.abs(ref))
    assert np.all(err16 <= np.maximum(1e-3 * err8, floor))


def test_certified_free_spectrum():
    spec = solve_certified(IV, 0.0, 1000.0, tol=1e-10, n=400)
    exact = (np.arange(1, 21) * math.pi / 2.0) ** 2
    assert len(spec) == 20
    assert np.max(np.abs(spec - exact) / exact) <= 1e-10


def test_certified_against_richardson_oracle():
    """Mode 1 eigenvalues cross-checked with the extrapolated FD values."""
    spec = solve_certified(IV, 1.0, 100.0, tol=1e-10, n=128)
    assert len(spec) >= 5
    hi = float(spec[-1]) * 1.2
    coarse = fd_eigenvalues(assemble_fd(IV, 1.0, m=2000), 0.0, hi)
    fine = fd_eigenvalues(assemble_fd(IV, 1.0, m=4001), 0.0, hi)
    k = len(spec)
    extrap = (4.0 * fine[:k] - coarse[:k]) / 3.0
    assert np.max(np.abs(spec - extrap) / extrap) <= 1e-8


def test_certified_empty_below_ground_state():
    spec = solve_certified(IV, 0.0, 2.0, n=64)
    assert len(spec) == 0


def test_certified_rejects_unresolvable_request():
    # resolution 8 cannot certify anything near 500
    with pytest.raises(CertificationError):
        solve_certified(IV, 0.0, 500.0, tol=1e-10, n=8)


@pytest.mark.parametrize("n", [400, 800])
def test_galerkin_matches_collocation(n):
    """Galerkin modes 1, 30 and 70 against the frozen collocation table.

    tests/data/collocation-1000.csv is the certified cutoff-1000 table on
    (-1, 1), every value <= 1050, made by Chebyshev collocation at n = 400
    (a dense nonsymmetric eigensolve) and certified against n = 800 before
    that route was retired; it is byte-identical to
    perfbench/reference/paper-1000.csv as first committed.  n = 800
    (order 799) guards the inverse pencil: the direct pencil
    (K + kappa M) x = nu B x loses about 1e-7 relative at that order.
    """
    rows = table_rows_from_csv(COLLOCATION_1000.read_text())
    for ell in (1, 30, 70):
        coll = np.array([nu for e, _, nu in rows if e == ell])
        gal = _dense(IV, ell ** 2, n)
        err = np.abs(gal[: coll.size] - coll) / np.maximum(1.0, coll)
        assert coll.size > 0 and gal[coll.size] > 1050.0
        assert np.max(err) <= 1e-11


def test_certified_tol_floor():
    for tol in (1e-14, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            solve_certified(IV, 0.0, 10.0, tol=tol)
    with pytest.raises(ValueError):
        sweep(IV, 2.0, tol=float("nan"), n=64)  # no mode is solved at all


def test_certified_rejects_nonfinite_cutoff():
    with pytest.raises(ValueError):
        solve_certified(IV, 0.0, float("inf"))


def test_certified_paths_refuse_n_past_half_the_limit(monkeypatch):
    # they also assemble 2n, so n = 2049 is refused before anything is built,
    # as is n = 3, below the least resolution
    monkeypatch.setattr(sl_family, "assemble_galerkin", None)
    for n in (3, 2049):
        with pytest.raises(ValueError, match=f"need 4 <= n <= 2048, got {n}"):
            solve_certified(IV, 0.0, 10.0, n=n)
        with pytest.raises(ValueError, match=f"need 4 <= n <= 2048, got {n}"):
            sweep(IV, 10.0, n=n)


def test_certified_paths_refuse_an_n_that_is_not_a_whole_number(monkeypatch):
    """A float n once passed the range check and failed in assembly with a
    TypeError; now every certified entry point refuses it before anything
    is built, and a numpy integer is a whole number."""
    monkeypatch.setattr(sl_family, "assemble_galerkin", None)
    domain = ProductDomain()
    for n in (64.0, 64.5, True):
        with pytest.raises(ValueError, match="n must be a whole number"):
            sweep(IV, 50.0, n=n)
        with pytest.raises(ValueError, match="n must be a whole number"):
            solve_certified(IV, 1.0, 50.0, n=n)
        with pytest.raises(ValueError, match="n must be a whole number"):
            family_table(domain, 50.0, n=n)
    monkeypatch.undo()
    assert sweep(IV, 50.0, n=np.int64(64)).entries == sweep(IV, 50.0, n=64).entries


# The sweep's own mode scan is the only search for ell_max; the three tests
# below keep the checks that once pinned a separate search.


def test_find_ell_max_defining_property():
    cutoff = 50.0
    table = sweep(IV, cutoff, n=64)
    lm = table.ell_max
    assert lm >= 2
    above = _dense(IV, lm ** 2, 64)[0]
    below = _dense(IV, (lm - 1) ** 2, 64)[0]
    assert above > cutoff >= below
    # ell_max is the first excluded mode: the table ends at the one before
    assert max(ell for ell, _, _ in table.entries) == lm - 1


def test_find_ell_max_tiny_cutoff():
    # even the first mode clears 2, so nothing is retained
    assert _dense(IV, 1.0, 64)[0] > 2.0
    assert sweep(IV, 2.0, n=64).ell_max == 1


def test_find_ell_max_validation(monkeypatch):
    # bad cutoffs, and one that would need a mode past 2^22, are refused
    # before anything is assembled
    monkeypatch.setattr(sl_family, "assemble_galerkin", None)
    for cutoff in (-1.0, float("nan"), 1e30):
        with pytest.raises(ValueError):
            sweep(IV, cutoff, n=64)


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
def test_sweep_ell_max_matches_ground_state_scan(interval, cutoff, n, width):
    """ell_max is the first mode whose dense ground state clears the cutoff."""
    if cutoff == 1e4:
        # n = 64 does not certify 1e4, and 140 is the smallest n that does
        with pytest.raises(CertificationError):
            sweep(interval, cutoff, n=n, width=width)
        n = 140

    def nu1(ell):
        return _dense(interval, float(ell) ** 2 * (math.pi / width) ** 2, n)[0]

    ell = 1
    while nu1(ell) <= cutoff:
        ell += 1
    ell_max = sweep(interval, cutoff, n=n, width=width).ell_max
    assert ell_max == ell
    assert ell_max == 1 or nu1(ell_max - 1) <= cutoff
    assert cutoff < nu1(ell_max)


def test_sweep_builds_each_resolution_once(monkeypatch):
    builds = []

    def counted(interval, n=400):
        builds.append(n)
        return assemble_galerkin(interval, n)

    monkeypatch.setattr(sl_family, "assemble_galerkin", counted)
    sweep(IV, 40.0, n=64)
    assert builds == [128]


@pytest.mark.parametrize("n", [8, 64, 200, 400])
def test_families_take_the_coarse_family_from_the_fine_one(n):
    """The n family is the leading block of the 2n one: every entry of the first
    n - 1 columns of the 2n bands that a banded product of order n - 1 reads
    (row d of column j, j + d < n - 1) is bitwise that of the n family, and
    so is the product.  So are the entries of the 2n Cholesky factors of B
    and K + kappa M, bitwise: dpbtrf (unblocked at these band widths) forms
    column j from columns j - kd .. j - 1 alone, by the same operations at
    either order.  _rayleigh_ritz reads the n factors from them."""
    fine = assemble_galerkin(IV, 2 * n)
    built = assemble_galerkin(IV, n)
    assert np.array_equal(fine.stiffness[: n - 1], built.stiffness)
    v = np.sin(np.arange(n - 1.0))
    for kappa in (0.0, 1.0, 5041.0):
        pairs = [(fine.mass_band, built.mass_band),
                 (fine.operator_band(kappa), built.operator_band(kappa))]
        for big, small in pairs:
            factors = eigen._cholesky(big, "big")[:, : n - 1], eigen._cholesky(small, "small")
            big = big[:, : n - 1]
            for d in range(min(big.shape[0], n - 1)):
                assert np.array_equal(big[d, : n - 1 - d], small[d, : n - 1 - d])
                assert np.array_equal(factors[0][d, : n - 1 - d], factors[1][d, : n - 1 - d])
            assert np.array_equal(
                dsbmv(big.shape[0] - 1, 1.0, big, v, lower=1),
                dsbmv(small.shape[0] - 1, 1.0, small, v, lower=1),
            )


def test_sweep_makes_no_dense_solves(monkeypatch, capsys):
    def refused(*args, **kwargs):
        raise AssertionError("dense solve")

    monkeypatch.setattr(scipy.linalg, "eigh", refused)
    table = sweep(IV, 40.0, n=64)
    assert table.ell_max > 1
    assert solve_certified(IV, 9.0, 200.0, n=64).size > 0
    assert main(["eig", "--ell", "3", "--cutoff", "200", "--n", "64"]) == 0
    assert "eigenvalues <= cutoff" in capsys.readouterr().out


def test_sweep_asks_for_one_more_than_it_can_retain(monkeypatch):
    """One Lanczos solve per mode, at 2n, with the k rule: count bound + 1 for
    mode 1, then the last count + 1."""
    asked = []

    def recorded(factor, root, k, *start):
        nu, x = lowest_pencil_eigenpairs(factor, root, k, *start)
        asked.append((factor.shape[1], k, nu))
        return nu, x

    monkeypatch.setattr(sl_family, "lowest_pencil_eigenpairs", recorded)
    cutoff = 40.0
    table = sweep(IV, cutoff, n=64)
    retain = cutoff * 1.05
    # every solve is at order 2n - 1: one per mode swept plus the one that stops the sweep
    assert [order for order, _, _ in asked] == [127] * table.ell_max
    assert asked[0][1] == math.floor(2.0 * math.sqrt(retain) / math.pi) + 1
    for ell, (_, k, values) in enumerate(asked[1:], start=2):
        assert k == table.mode_values(ell - 1).size + 1
        assert values[-1] > retain  # the bound held: nothing was cut off
    assert asked[-1][2][0] > cutoff  # the stopping mode's 2n ground state


@pytest.mark.parametrize(
    "interval, n, k, bound",
    [
        (IV, 400, 40, 1e-13),
        # exp(2t) spans e^12: the dense reference is good to about 4e-11 here
        (Interval(0.5, 6.5), 200, 15, 4e-11),
    ],
)
@pytest.mark.parametrize("kappa", [1.0, 100.0, 1000.0])
def test_rayleigh_ritz_brackets_the_coarse_values(interval, n, k, bound, kappa):
    """nu_j(2n) <= nu_j(n) <= theta_j, theta the Rayleigh-Ritz values of the n
    pencil on the leading rows of the 2n Ritz vectors, and theta is nu(n)."""
    family = assemble_galerkin(interval, 2 * n)
    root = eigen._cholesky(family.mass_band, "B")
    factor = eigen._cholesky(family.operator_band(kappa), "a")
    w2, x = lowest_pencil_eigenpairs(factor, root, k)
    theta = sl_family._rayleigh_ritz(n, factor, root, x)
    coarse = _dense(interval, kappa, n)[:k]
    fine = _dense(interval, kappa, 2 * n)[:k]
    slack = bound * coarse
    assert np.all(fine <= coarse + slack) and np.all(coarse <= theta + slack)
    assert np.max(np.abs(theta - coarse) / coarse) <= bound
    assert np.max(np.abs(w2 - fine) / fine) <= bound


@pytest.mark.parametrize("n", [8, 64, 200, 400])
@pytest.mark.parametrize("k", [1, 4, 40])
def test_rayleigh_ritz_grams_match_banded_products(n, k):
    """The Gram matrices from the leading blocks of the 2n Cholesky factors,
    ||L_n^T y||^2 and ||R_n^T y||^2, are y^T A_n y and y^T B_n y from BLAS
    dsbmv on the first n - 1 columns of the 2n bands, to 1e-14 of their
    largest entry."""
    family = assemble_galerkin(IV, 2 * n)
    root = eigen._cholesky(family.mass_band, "B")
    y = np.random.default_rng(n * k).standard_normal((n - 1, k))
    for kappa in (0.0, 1.0, 5041.0):
        band = family.operator_band(kappa)
        grams = sl_family._grams(eigen._cholesky(band, "a"), root, y)
        for gram, b in zip(grams, (band, family.mass_band)):
            b = b[:, : n - 1]
            ref = y.T @ np.column_stack([dsbmv(b.shape[0] - 1, 1.0, b, v, lower=1) for v in y.T])
            assert gram.shape == (k, k)
            assert np.max(np.abs(gram - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [8, 64, 200])
def test_rayleigh_ritz_grams_read_every_row_of_the_b_factor(n):
    """On a 3-row B whose factor has a nonzero offset-1 row, the B Gram
    ||R_n^T y||^2 is y^T B_n y from a dense product, to 1e-14 of its
    largest entry: no offset of B's factor is assumed."""
    family = assemble_galerkin(IV, 2 * n)
    order = family.order
    rng = np.random.default_rng(n)
    b = np.zeros((3, order), order="F")
    b[0] = 4.0 + rng.uniform(0.0, 1.0, order)  # diagonally dominant
    b[1, :-1] = rng.uniform(-1.0, 1.0, order - 1)
    b[2, :-2] = rng.uniform(-1.0, 1.0, order - 2)
    root = eigen._cholesky(b, "B")
    assert np.any(root[1])
    y = rng.standard_normal((n - 1, 5))
    _, mass = sl_family._grams(eigen._cholesky(family.operator_band(1.0), "a"), root, y)
    ref = y.T @ band_to_dense(b[:, : n - 1]) @ y
    assert np.max(np.abs(mass - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_rayleigh_ritz_refuses_dependent_vectors():
    """A Gram matrix of B that is not positive definite is a CertificationError."""
    family = assemble_galerkin(IV, 2 * 16)
    root = eigen._cholesky(family.mass_band, "B")
    factor = eigen._cholesky(family.operator_band(1.0), "a")
    _, x = lowest_pencil_eigenpairs(factor, root, 4)
    x = x.copy()
    x[:, 1] = 0.0
    with pytest.raises(CertificationError, match="not positive definite"):
        sl_family._rayleigh_ritz(16, factor, root, x)


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
    # Independent of the Galerkin and FD routes: 70 < ell_max <= 72 for
    # cutoff 1000 on (-1, 1), so the first mode clearing 1000 is not 50.
    free = (math.pi / 2.0) ** 2
    assert free <= _p1_ritz_ground_state(0) <= free * (1.0 + 1e-5)
    assert _p1_ritz_ground_state(50) < 1000.0
    assert _p1_ritz_ground_state(70) < 1000.0
    assert _airy_ground_state_lower(72, t0=-0.87) > 1000.0


def test_sweep_empty_table_is_legal():
    table = sweep(IV, 2.0, n=64)
    assert table.ell_max == 1
    assert table.entries == ()
    assert table.nus().size == 0


def test_sweep_small_cutoff_contents():
    table = sweep(IV, 40.0, n=64)
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
    table = sweep(IV, 40.0, n=64)
    for ell in table.modes():
        vals = table.mode_values(ell)
        hi = float(vals[-1]) * 1.2
        coarse = fd_eigenvalues(assemble_fd(IV, ell ** 2, m=1000), 0.0, hi)
        fine = fd_eigenvalues(assemble_fd(IV, ell ** 2, m=2001), 0.0, hi)
        k = vals.size
        extrap = (4.0 * fine[:k] - coarse[:k]) / 3.0
        assert np.max(np.abs(vals - extrap) / extrap) <= 1e-8


def test_sweep_rejects_unresolvable_request():
    for cutoff, n in ((200.0, 8), (1e4, 64)):
        with pytest.raises(CertificationError):
            sweep(IV, cutoff, n=n)


def test_sweep_certification_error_prints_plain_floats():
    # n = 8 resolves mode 1 of cutoff 30 too coarsely to agree with n = 16
    with pytest.raises(CertificationError) as info:
        sweep(IV, 30.0, n=8)
    message = str(info.value)
    assert "np.float64" not in message
    found = re.search(
        r"eigenvalue (\d+) differs .* resolutions 8 and 16: (\S+) vs (\S+) \(tol", message
    )
    assert found, message
    i = int(found[1])
    theta, w2 = (float(text) for text in found.groups()[1:])
    coarse, fine = _dense(IV, 1.0, 8)[i], _dense(IV, 1.0, 16)[i]
    # the value at n is the Rayleigh-Ritz bound theta >= nu(8), within rounding
    assert coarse * (1.0 - 1e-14) <= theta == pytest.approx(coarse, rel=1e-11)
    assert w2 == pytest.approx(fine, rel=1e-12)


def test_sweep_oracle_mismatch_names_the_mode(monkeypatch):
    def off_by_one_at_mode_2(diag, off2, lams):
        counts = sturm_counts(diag, off2, lams)
        counts[1] += 1
        return counts

    sturm_counts = sl_family._sturm_counts
    monkeypatch.setattr(sl_family, "_sturm_counts", off_by_one_at_mode_2)
    with pytest.raises(CertificationError, match="mode 2:"):
        sweep(IV, 40.0, n=64)


def test_single_solve_oracle_mismatch_names_the_coupling(monkeypatch):
    def off_by_one(diag, off2, lams):
        return sturm_counts(diag, off2, lams) + 1

    sturm_counts = sl_family._sturm_counts
    monkeypatch.setattr(sl_family, "_sturm_counts", off_by_one)
    with pytest.raises(CertificationError, match="coupling 2.25:"):
        solve_certified(IV, 2.25, 40.0, n=64)


def test_oracle_grid_meets_the_sizing_rule(monkeypatch):
    """The FD grid is the fewest points with h^2 above^2 / 12 <= (above - probe) / 8."""
    grids = []

    def recorded(interval, coupling, m=2000):
        grids.append(m)
        return assemble_fd(interval, coupling, m)

    monkeypatch.setattr(sl_family, "assemble_fd", recorded)
    table = sweep(IV, 40.0, n=64)
    [m] = grids
    # every mode's first discarded value and its gap probe, from a dense solve
    gaps = []
    for ell in table.modes():
        k = table.mode_values(ell).size
        w = _dense(IV, ell ** 2, 64)
        gaps.append((w[k], 0.5 * (w[k - 1] + w[k])))

    def meets(points):
        h = IV.length / (points + 1)
        return all(h * h * a * a / 12.0 <= (a - p) / 8.0 * (1 + 1e-12) for a, p in gaps)

    assert len(gaps) == table.ell_max - 1 > 1
    assert m >= 3 and meets(m)
    assert m == 3 or not meets(m - 1)


def test_certified_mode_at_cutoff_three_hundred_thousand():
    # a fixed 4000-point FD grid counts 349 below the probe here
    values = solve_certified(IV, 1.0, 3e5, n=1100)
    assert values.size == 348
    assert values[-1] <= 3e5


@pytest.mark.parametrize(
    "table, most",
    [
        (lambda: sweep(IV, 50.0, n=400), 150),
        (lambda: family_table(ProductDomain(2.0 * math.pi), 100.0, n=200), 530),
    ],
    ids=["paper-table", "trace-family"],
)
def test_sweep_banded_solves(monkeypatch, table, most):
    """Each mode after the first starts its Lanczos from the previous mode's
    Ritz vectors: 145 and 515 banded solves (one per Lanczos step) for these
    tables, where the fixed start of every mode took 188 and 712.  The counts
    are deterministic."""
    solves = []

    def counted(*args, **kwargs):
        solves.append(None)
        return dpbtrs(*args, **kwargs)

    dpbtrs = eigen.dpbtrs
    monkeypatch.setattr(eigen, "dpbtrs", counted)
    table()
    assert len(solves) <= most


@pytest.mark.parametrize(
    "interval, n, bound",
    [
        (IV, 400, 1e-13),
        # exp(2t) spans e^12: theta itself is good to about 3e-12 here
        (Interval(0.5, 6.5), 200, 1e-11),
    ],
)
def test_sweep_rows_match_single_mode_solves(interval, n, bound):
    """The warm-started sweep and the cold single-mode solve agree row by row
    through the retention limit: the start changes only the rounding.  Mode 1
    starts cold in both, so there they are bitwise equal."""
    table = sweep(interval, 1000.0, n=n)
    retain = table.cutoff * (1.0 + table.margin)
    for ell in table.modes():
        rows = table.mode_values(ell)
        single = solve_certified(interval, float(ell) ** 2, retain, n=n)
        assert single.size == rows.size
        assert np.max(np.abs(rows - single) / single) <= bound
        assert ell > 1 or np.array_equal(rows, single)


def test_sweep_deterministic():
    a = sweep(IV, 40.0, n=64)
    b = sweep(IV, 40.0, n=64)
    assert a.entries == b.entries
    assert a.ell_max == b.ell_max


def test_sweep_validation(monkeypatch):
    for cutoff in (-5.0, float("nan")):
        with pytest.raises(ValueError):
            sweep(IV, cutoff)
    # nu1(kappa) >= kappa exp(2 alpha) cannot place ell_max below 2^22:
    # refused up front, without a solve
    monkeypatch.setattr(sl_family, "lowest_pencil_eigenpairs", None)
    with pytest.raises(ValueError, match="past"):
        sweep(IV, 1e30, n=64)


def test_sweep_width_pi_matches_default():
    base = sweep(IV, 40.0, n=64)
    assert sweep(IV, 40.0, n=64, width=math.pi).entries == base.entries


def test_sweep_width_validation():
    for width in (0.0, -math.pi, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="strip width must be positive and finite"):
            sweep(IV, 40.0, n=64, width=width)
    # (pi / width)^2 overflows a double: bad input, not a crash
    with pytest.raises(ValueError, match="overflows"):
        sweep(IV, 10.0, n=16, width=1e-200)


def test_high_intervals_are_refused_as_galerkin_refuses_them():
    """Past alpha = 354.9 the pre-check's exp(2 alpha) overflows a double, so
    no mode reaches the cutoff: the sweep, a single solve and the strip's
    family table refuse the interval as assemble_galerkin does.  The
    pre-check once raised OverflowError there."""
    high = Interval(400.0, 401.0)
    domain = ProductDomain(x_length=math.pi, a=1e174, b=1e175)
    for run in (
        lambda: assemble_galerkin(high, 16),
        lambda: sweep(high, 10.0, n=16),
        lambda: solve_certified(high, 1.0, 10.0, n=16),
        lambda: family_table(domain, 10.0, n=16),
    ):
        with pytest.raises(ValueError, match=r"^exp\(2t\) overflows on the interval$"):
            run()


def test_sampled_table_values_are_bessel_roots(full_table):
    """About ten evenly spaced rows each of the cutoff-1000 tables on (-1, 1)
    at n=400 and on (0.5, 6.5) at n=200 are true eigenvalues: the exact
    Bessel determinant of their mode (see conftest.bessel_sign_change)
    changes sign across nu (1 +- 1e-10) at 40 digits and again at 80, and
    not across a value 1e-6 off."""
    pytest.importorskip("mpmath")
    for table in (full_table[0], sweep(Interval(0.5, 6.5), 1000.0, n=200)):
        ends = table.interval.alpha, table.interval.beta
        for ell, k, nu in table.entries[:: len(table.entries) // 10][:10]:
            kappa = float(ell) ** 2  # width pi
            for dps in (40, 80):
                assert bessel_sign_change(nu, kappa, *ends, dps=dps), (ends, ell, k, nu, dps)
            assert not bessel_sign_change(nu * (1 + 1e-6), kappa, *ends, dps=40), (ell, k)


@pytest.mark.parametrize(
    "interval, cutoff, n",
    [(Interval(-3.0, 3.0), 1.0, 4), (Interval(0.5, 6.5), 21.544346900318832, 6)],
)
def test_sweep_refuses_a_value_straddling_the_cutoff(interval, cutoff, n):
    """The first value discarded lies above the cutoff at n but not at 2n:
    nu(n) may lie at or below the cutoff, so the count could be short.
    Both sweeps once returned a table with no eigenvalue, where n = 200
    finds one."""
    fine = sweep(interval, cutoff, n=200)
    assert fine.nus(through=cutoff).size == 1
    with pytest.raises(CertificationError, match="across the cutoff"):
        sweep(interval, cutoff, n=n)
    with pytest.raises(CertificationError, match="across the cutoff"):
        solve_certified(interval, 1.0, cutoff, n=n)


@pytest.mark.parametrize("n", [4, 5])
def test_an_unresolved_ground_state_cannot_end_the_table(n):
    """Mode 1 on (-1, 8) has its true ground state 3.3705 below the cutoff
    3.5, but at n = 4 and 5 its ground state at 2n lies above it: the sweep
    once stopped there and returned an empty table.  The floor (pi / 9)^2 +
    exp(-2) is far below the cutoff, and the bracket between n and 2n is
    wide, so the stop is refused; n = 200 certifies the one value."""
    interval = Interval(-1.0, 8.0)
    with pytest.raises(CertificationError, match=r"mode 1: the ground state lies in \["):
        sweep(interval, 3.5, n=n)
    with pytest.raises(CertificationError, match="the true one may lie below the cutoff 3.5"):
        solve_certified(interval, 1.0, 3.5, n=n)
    table = sweep(interval, 3.5, n=200)
    assert table.ell_max == 2
    assert table.nus(through=3.5) == pytest.approx([3.37047271281], rel=1e-11)
    assert solve_certified(interval, 1.0, 3.5, n=200) == pytest.approx([3.37047271281], rel=1e-11)


def test_certified_solve_above_the_ground_state_builds_no_grid(monkeypatch, capsys):
    """A ground state whose solve-free floor clears the cutoff needs no
    certification of its own: the answer is empty, and no FD grid is built
    (mode 10^7 once built 8.9 million points for it)."""
    grids = []

    def recorded(interval, coupling, m=2000):
        grids.append(m)
        return assemble_fd(interval, coupling, m)

    monkeypatch.setattr(sl_family, "assemble_fd", recorded)
    assert solve_certified(IV, 1e14, 10.0, n=16).size == 0
    assert solve_certified(IV, 4.0, 1.0, n=64).size == 0  # nu_1 > pi^2 / 4
    assert main(["eig", "--ell", "10000000", "--cutoff", "10", "--n", "16"]) == 0
    assert "0 eigenvalues <= cutoff" in capsys.readouterr().out
    assert grids == []
    assert solve_certified(IV, 4.0, 10.0, n=64).size == 1
    assert len(grids) == 1


def test_table_query_semantics():
    table = sweep(IV, 40.0, n=64)
    full = table.nus()
    part = table.nus(through=10.0)
    assert np.all(part <= 10.0)
    assert part.size == np.sum(full <= 10.0)
    assert table.nus(through=40.0).size == np.sum(full <= 40.0)
    # rows in (cutoff, cutoff * (1 + margin)] are padding, not complete data
    for through in (40.0 * 1.001, 40.0 * 1.05, 40.0 * 1.05 + 1.0):
        with pytest.raises(IncompleteTableError):
            table.nus(through=through)
    # a non-finite bound is no query: NaN compared past nothing and returned every row
    for through in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="through must be finite"):
            table.nus(through=through)


def test_table_csv_round_trip():
    for cutoff in (40.0, 50.0):
        table = sweep(IV, cutoff, n=64)
        text = table.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "ell,k,nu"
        assert len(lines) == len(table.entries) + 1
        assert table_rows_from_csv(text) == list(table.entries)


def test_table_csv_rejects_bad_header():
    with pytest.raises(ValueError):
        table_rows_from_csv("a,b,c\n1,1,2.0\n")
    for empty in ("", "\n\n"):
        with pytest.raises(ValueError, match="unexpected header"):
            table_rows_from_csv(empty)


def test_table_csv_reads_crlf_and_names_a_bad_row():
    table = sweep(IV, 40.0, n=64)
    crlf = table.to_csv().replace("\n", "\r\n")
    assert table_rows_from_csv(crlf) == list(table.entries)
    with pytest.raises(ValueError, match="bad row '1,1': not enough values"):
        table_rows_from_csv("ell,k,nu\n1,1,2.0\n1,1\n")
    with pytest.raises(ValueError, match="bad row '1,x,2.0'"):
        table_rows_from_csv("ell,k,nu\n1,x,2.0\n")


def _mini_table(entries, cutoff=10.0, ell_max=3):
    return EigenTable(
        entries=entries, cutoff=cutoff, ell_max=ell_max, resolution=16, tolerance=1e-8
    )


def test_table_invariant_violations():
    with pytest.raises(ValueError, match="entries must be sorted"):
        _mini_table(((1, 2, 3.0), (1, 1, 2.0)))  # unsorted
    with pytest.raises(ValueError, match="non-consecutive branch indices"):
        _mini_table(((1, 2, 3.0),))  # branch indices must start at 1
    with pytest.raises(ValueError, match="not strictly increasing"):
        _mini_table(((1, 1, 3.0), (1, 2, 2.5)))  # not increasing in k
    with pytest.raises(ValueError, match="branch 1 not increasing between modes 1 and 2"):
        _mini_table(((1, 1, 3.0), (2, 1, 2.0)))  # not increasing in ell
    with pytest.raises(ValueError, match="past retention limit"):
        _mini_table(((1, 1, 99.0),))  # beyond the retention window
    # a NaN cutoff would compare past every query and switch off the guard
    with pytest.raises(ValueError, match="cutoff must not be NaN"):
        _mini_table(((1, 1, 3.0),), cutoff=float("nan"))
    # a NaN eigenvalue passes every ordering check, an infinite one is no eigenvalue
    for nu in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match=r"entry \(1,2\) is not finite or past"):
            _mini_table(((1, 1, 3.0), (1, 2, nu)))
    # a table must hold the modes 1 .. ell_max - 1 and no other: without
    # mode 2, N(10) read 3 here with no error
    for entries, ell_max, odd in (
        (((1, 1, 3.0), (1, 2, 7.0), (3, 1, 5.0)), 4, r"\[2\]"),
        (((1, 1, 3.0), (2, 1, 7.0)), 2, r"\[2\]"),
        (((2, 1, 3.0),), 3, r"\[1\]"),
        ((), 10 ** 12, r"\[1\]"),  # checked without a range of 10^12 modes
    ):
        with pytest.raises(ValueError, match=rf"ell_max {ell_max} .* modes {odd} are missing"):
            _mini_table(entries, ell_max=ell_max)


def test_table_refuses_indices_that_are_not_whole_numbers():
    """to_csv wrote these tables as rows table_rows_from_csv refuses, and a
    float ell_max failed in range() with a TypeError."""
    for entries in (((1, 1.0, 3.0),), ((True, 1, 3.0),), ((1.0, 1, 3.0),), ((1, False, 3.0),)):
        with pytest.raises(ValueError, match="needs whole-number indices"):
            _mini_table(entries, ell_max=2)
    for ell_max in (2.0, True):
        with pytest.raises(ValueError, match="ell_max must be a whole number"):
            _mini_table(((1, 1, 3.0),), ell_max=ell_max)
    table = _mini_table(((np.int64(1), np.int64(1), 3.0),), ell_max=np.int64(2))
    assert table.modes() == [1]


def test_table_valid_synthetic():
    table = _mini_table(((1, 1, 3.0), (1, 2, 7.0), (2, 1, 5.0)))
    assert table.modes() == [1, 2]
    assert np.allclose(table.nus(), [3.0, 5.0, 7.0])
    assert np.allclose(table.mode_values(1), [3.0, 7.0])
    # every accepted table reads back from its own CSV
    for table in (table, _mini_table(((1, 1, 3),), ell_max=2), _mini_table((), ell_max=1),
                  _mini_table(((np.int64(1), np.int64(1), 3.0),), ell_max=2)):
        assert table_rows_from_csv(table.to_csv()) == list(table.entries)


# ROADMAP item 14, an open defect: on intervals longer than about 10 the
# certified values are wrong while the solve succeeds.  The potential
# kappa exp(2t) walls every eigenfunction below 40 off well inside (-1, 8),
# so on (-1, beta) the values must be those on (-1, 8) to 1e-10, or the
# solve must refuse.  Today they deviate by up to 0.24.  The markers are
# strict: the change that fixes item 14 makes these pass and removes them.
ITEM_14 = "ROADMAP item 14: certified values are wrong on intervals longer than about 10"


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_14)
@pytest.mark.parametrize("beta", [11.0, 13.0, 16.0, 19.0])
def test_long_interval_solve_agrees_with_the_short_one_or_refuses(beta):
    # today the largest relative deviations are 2.9e-8, 3.8e-7, 1.5e-4 and 0.24
    short = solve_certified(Interval(-1.0, 8.0), 1.0, 40.0, n=200)
    try:
        values = solve_certified(Interval(-1.0, beta), 1.0, 40.0, n=200)
    except CertificationError:
        return
    assert values.size == short.size
    assert np.max(np.abs(values - short) / short) <= 1e-10


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_14)
@pytest.mark.parametrize("beta", [11.0, 13.0, 16.0])
def test_long_interval_sweep_agrees_with_the_short_one_or_refuses(beta):
    # today the largest relative deviations are 2.3e-7, 4.7e-6 and 7.5e-3
    short = sweep(Interval(-1.0, 8.0), 40.0, n=200)
    try:
        table = sweep(Interval(-1.0, beta), 40.0, n=200)
    except CertificationError:
        return
    assert table.ell_max == short.ell_max
    assert [e[:2] for e in table.entries] == [e[:2] for e in short.entries]
    nus, short_nus = (np.array([nu for _, _, nu in t.entries]) for t in (table, short))
    assert np.max(np.abs(nus - short_nus) / short_nus) <= 1e-10
