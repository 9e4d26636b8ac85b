"""Tests for the counting function, Riesz means, and bound verification."""

import math

import numpy as np
import pytest

from hyperlap import (
    CountingFunction,
    EXCESS,
    IncompleteTableError,
    Interval,
    counting_rhs,
    polya_rhs,
    polya_rows,
    product_counting_rhs,
    product_riesz_rhs,
    ratio_rows,
    sweep,
    verify_bound,
)

STRIP_VOLUME = math.pi * (math.e - 1.0 / math.e)


def _free_cf(kmax=10, volume=STRIP_VOLUME):
    nus = (np.arange(1, kmax + 1) * math.pi / 2.0) ** 2
    return CountingFunction(sorted_nus=nus, domain_volume=volume)


def test_count_semantics():
    cf = _free_cf()
    assert cf.count(10.0) == 2
    assert cf.count(1.0) == 0
    nu2 = math.pi**2
    assert cf.count(nu2) == 1  # strict at the jump
    assert cf.count_through(nu2) == 2  # inclusive just after


def test_count_monotone():
    cf = _free_cf()
    lams = np.linspace(0.1, 200.0, 101)
    counts = [cf.count(lam) for lam in lams]
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_count_right_continuity_with_multiplicity():
    cf = CountingFunction(
        sorted_nus=np.array([1.0, 2.0, 2.0, 5.0]), domain_volume=1.0
    )
    assert cf.count(2.0) == 1
    assert cf.count_through(2.0) == 3
    assert np.allclose(cf.jumps(5.0), [1.0, 2.0, 5.0])


def test_riesz_mean_analytic():
    cf = _free_cf()
    expected = (10.0 - (math.pi / 2.0) ** 2) + (10.0 - math.pi**2)
    assert abs(cf.riesz_mean(10.0, 1.0) - expected) <= 1e-12
    assert round(cf.riesz_mean(10.0, 1.0), 4) == 7.663


def test_riesz_gamma_zero_is_count():
    cf = _free_cf()
    for lam in (1.0, 2.5, 10.0, 50.0):
        assert cf.riesz_mean(lam, 0.0) == float(cf.count(lam))


def test_riesz_validation():
    cf = _free_cf()
    with pytest.raises(ValueError):
        cf.riesz_mean(10.0, -0.5)
    with pytest.raises(ValueError):
        cf.riesz_mean(float("nan"), 1.0)


def test_cutoff_guard():
    nus = np.array([1.0, 2.0])
    cf = CountingFunction(sorted_nus=nus, domain_volume=1.0, cutoff=5.0)
    assert cf.count(5.0) == 2
    with pytest.raises(IncompleteTableError):
        cf.count(5.1)
    with pytest.raises(IncompleteTableError):
        cf.riesz_mean(6.0, 1.0)
    with pytest.raises(IncompleteTableError):
        cf.jumps(7.0)
    # a NaN cutoff compares past no query: it would switch the guard off
    with pytest.raises(ValueError, match="cutoff must not be NaN"):
        CountingFunction(sorted_nus=nus, domain_volume=1.0, cutoff=float("nan"))


def test_array_queries_match_scalar_queries():
    rng = np.random.default_rng(5)
    nus = np.sort(rng.uniform(0.0, 900.0, size=400))
    cf = CountingFunction(sorted_nus=nus, domain_volume=1.0, cutoff=1000.0)
    # 600 points cross a Riesz block boundary; include exact jumps and 0
    lams = np.concatenate([rng.uniform(0.0, 1000.0, 580), nus[:19], [0.0]])
    lams = rng.permutation(lams)
    counts = cf.count(lams)
    through = cf.count_through(lams)
    assert counts.shape == through.shape == lams.shape
    assert counts.tolist() == [cf.count(lam) for lam in lams]
    assert through.tolist() == [cf.count_through(lam) for lam in lams]
    for gamma in (0.0, 0.5, 1.0, 2.3):
        means = cf.riesz_mean(lams, gamma)
        assert means.shape == lams.shape
        scalar = np.array([cf.riesz_mean(lam, gamma) for lam in lams])
        assert np.all(np.abs(means - scalar) <= 1e-13 * np.maximum(1.0, scalar))
    grid = lams.reshape(20, 30)
    assert np.array_equal(cf.count(grid), counts.reshape(20, 30))
    assert cf.riesz_mean(grid, 1.0).shape == (20, 30)


def test_array_queries_past_cutoff_raise():
    cf = CountingFunction(np.array([1.0, 2.0]), domain_volume=1.0, cutoff=5.0)
    lams = np.array([0.5, 4.0, 5.0, 5.1, 3.0])
    with pytest.raises(IncompleteTableError):
        cf.count(lams)
    with pytest.raises(IncompleteTableError):
        cf.count_through(lams)
    with pytest.raises(IncompleteTableError):
        cf.riesz_mean(lams, 1.0)
    with pytest.raises(ValueError):
        cf.count(np.array([1.0, np.nan]))
    assert cf.count(lams[:3]).tolist() == [0, 2, 2]


def test_scalar_queries_return_python_scalars():
    cf = _free_cf()
    for lam in (10.0, np.float64(10.0), np.asarray(10.0), 10):
        assert type(cf.count(lam)) is int
        assert type(cf.count_through(lam)) is int
        assert type(cf.riesz_mean(lam, 0.0)) is float
        assert type(cf.riesz_mean(lam, 1.5)) is float
    assert type(polya_rhs(np.asarray(4.0), 2, 1.0)) is float
    assert type(product_riesz_rhs(4.0, 1.0, 2, 1.0)) is float


def test_rhs_accept_arrays():
    lams = np.array([0.0, 1.0, 4.0, 9.5])
    for rhs in (polya_rhs, counting_rhs, product_counting_rhs):
        assert np.array_equal(rhs(lams, 2, 3.0), [rhs(lam, 2, 3.0) for lam in lams])
    got = product_riesz_rhs(lams, 1.5, 2, 3.0)
    assert np.allclose(got, [product_riesz_rhs(lam, 1.5, 2, 3.0) for lam in lams],
                       rtol=1e-15, atol=0.0)
    with pytest.raises(ValueError):
        polya_rhs(np.array([1.0, -1.0]), 2, 1.0)


def test_constructor_sorts_and_validates():
    cf = CountingFunction(sorted_nus=np.array([3.0, 1.0, 2.0]), domain_volume=2.0)
    assert np.allclose(cf.sorted_nus, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        CountingFunction(sorted_nus=np.array([1.0]), domain_volume=0.0)
    with pytest.raises(ValueError):
        CountingFunction(sorted_nus=np.array([np.inf]), domain_volume=1.0)


def test_from_table_inherits_cutoff():
    table = sweep(Interval(-1.0, 1.0), 40.0, n=64)
    cf = CountingFunction.from_table(table, STRIP_VOLUME)
    assert cf.cutoff == 40.0
    assert cf.domain_volume == STRIP_VOLUME
    assert cf.count(40.0) == int(np.sum(table.nus() < 40.0))


def test_polya_rhs_examples():
    assert polya_rhs(4.0, 2, STRIP_VOLUME) == pytest.approx(math.e - 1.0 / math.e)
    assert polya_rhs(1.0, 2, 4.0 * math.pi) == pytest.approx(1.0)
    assert polya_rhs(0.0, 2, 1.0) == 0.0
    with pytest.raises(ValueError):
        polya_rhs(-1.0, 2, 1.0)


def test_counting_rhs_vs_polya():
    # the proven counting line sits a factor 2 * EXCESS above the semiclassical one
    for lam in (1.0, 10.0, 1000.0):
        ratio = counting_rhs(lam, 2, 3.0) / polya_rhs(lam, 2, 3.0)
        assert abs(ratio - 2.0 * EXCESS) <= 1e-12


def test_product_rhs_vs_counting_rhs():
    for lam in (1.0, 1000.0):
        ratio = product_counting_rhs(lam, 2, 1.0) / counting_rhs(lam, 2, 1.0)
        assert ratio > 1.0
        assert abs(ratio - 1.1895953348687343) <= 1e-10


def test_product_riesz_rhs_formula_and_validation():
    from hyperlap import lt_classical

    val = product_riesz_rhs(10.0, 1.0, 2, 2.0)
    assert val == pytest.approx(2.0 * lt_classical(1.0, 2) * 10.0**2 * 2.0)
    with pytest.raises(ValueError):
        product_riesz_rhs(10.0, 0.25, 2, 1.0)
    with pytest.raises(ValueError):
        product_riesz_rhs(-1.0, 1.0, 2, 1.0)


def test_verify_polya_on_free_table():
    cf = _free_cf(kmax=40)
    report = verify_bound(cf, "polya", 100.0, grid=500)
    assert not report.violated
    assert report.min_margin > 0.0
    assert report.bound_kind == "polya"
    assert report.lambda_grid.size >= 500


def test_verify_includes_jumps():
    # grid alone misses the violation; the jump point catches it
    # the bound is 2.2 lambda on this volume
    cf = CountingFunction(sorted_nus=np.array([0.37]), domain_volume=2.2 * 4.0 * math.pi)
    report = verify_bound(cf, "polya", 1.0, grid=2)
    assert report.violated
    assert report.argmin_lambda == pytest.approx(0.37)
    assert report.min_margin == pytest.approx(2.2 * 0.37 - 1.0)


@pytest.mark.parametrize("nus", [[], [0.25], [0.25, 0.25, 0.5, 0.75, 0.75, 0.75, 0.9]])
def test_jumps_and_grid_drop_repeats_like_numpy(nus):
    # the evaluation set is the grid joined with the distinct jumps, as
    # np.unique and np.union1d give them; 0.25, 0.5 and 0.75 lie on the grid
    cf = CountingFunction(sorted_nus=np.array(nus), domain_volume=1.0)
    jumps = cf.jumps(1.0)
    assert np.array_equal(jumps, np.unique(nus))
    report = verify_bound(cf, "polya", 1.0, grid=4)
    assert np.array_equal(report.lambda_grid, np.union1d(np.arange(1, 5) / 4.0, jumps))


def test_verify_scale_manufactures_violation():
    # the same eigenvalues on a domain 1000 times smaller break the bound
    ok = verify_bound(_free_cf(kmax=40), "polya", 100.0, grid=200)
    bad = verify_bound(_free_cf(kmax=40, volume=1e-3 * STRIP_VOLUME), "polya", 100.0, grid=200)
    assert not ok.violated and bad.violated
    assert bad.min_margin < 0.0


def test_verify_empty_staircase_never_violates():
    cf = CountingFunction(sorted_nus=np.array([200.0]), domain_volume=1.0)
    report = verify_bound(cf, "polya", 100.0, grid=50)
    assert not report.violated
    assert np.all(report.n_values == 0.0)


def test_verify_riesz_kind():
    cf = _free_cf(kmax=40)
    report = verify_bound(cf, "riesz", 100.0, grid=200, gamma=0.5)
    assert report.bound_kind == "riesz-0.5"
    assert not report.violated


def test_verify_refuses_non_finite_margins():
    """At gamma = 110 both sides of the Riesz bound overflow near lambda = 1000:
    their difference is NaN, which once reported the bound as holding."""
    cf = _free_cf(kmax=40)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="not finite"):
        verify_bound(cf, "riesz", 1000.0, gamma=110)


def test_verify_argument_validation():
    cf = _free_cf()
    with pytest.raises(ValueError):
        verify_bound(cf, "riesz", 10.0)  # gamma required
    with pytest.raises(ValueError):
        verify_bound(cf, "polya", 10.0, gamma=1.0)  # gamma forbidden
    with pytest.raises(ValueError):
        verify_bound(cf, "frobnicate", 10.0)
    with pytest.raises(ValueError):
        verify_bound(cf, "polya", 10.0, grid=0)
    with pytest.raises(ValueError):
        verify_bound(cf, "polya", -1.0)


@pytest.mark.parametrize("grid", [2.5, True])
def test_verify_refuses_a_grid_that_is_not_an_integer(grid):
    """A fractional grid once overran lam_max into IncompleteTableError, and
    True ran a one-point grid."""
    with pytest.raises(ValueError, match="grid must be a whole number of points"):
        verify_bound(_free_cf(kmax=40), "polya", 40.0, grid=grid)


def test_verify_takes_a_numpy_integer_grid():
    cf = _free_cf(kmax=40)
    got = verify_bound(cf, "polya", 40.0, grid=np.int64(50))
    want = verify_bound(cf, "polya", 40.0, grid=50)
    assert np.array_equal(got.lambda_grid, want.lambda_grid)
    assert got.min_margin == want.min_margin


def test_verify_respects_cutoff():
    cf = CountingFunction(
        sorted_nus=np.array([1.0]), domain_volume=1.0, cutoff=5.0
    )
    with pytest.raises(IncompleteTableError):
        verify_bound(cf, "polya", 6.0)


def test_report_json_dict():
    cf = _free_cf()
    report = verify_bound(cf, "polya", 10.0, grid=10)
    d = report.to_json_dict()
    assert sorted(d) == [
        "argmin_lambda",
        "bound_kind",
        "lam_max",
        "min_margin",
        "violated",
    ]
    assert d["violated"] is False


def test_chebyshev_type_inequality_property():
    """N(L) * (U - L) never exceeds the first Riesz mean at U."""
    rng = np.random.default_rng(20260814)
    nus = np.sort(rng.uniform(0.0, 900.0, size=300))
    cf = CountingFunction(sorted_nus=nus, domain_volume=1.0)
    for _ in range(20):
        lam = float(rng.uniform(0.0, 999.0))
        ups = float(rng.uniform(lam + 0.5, 1000.0))
        assert cf.count(lam) * (ups - lam) <= cf.riesz_mean(ups, 1.0) + 1e-9


def test_riesz_interpolation_monotonicity():
    """Raising gamma by 1/2 costs at most a factor lam^(1/2)."""
    rng = np.random.default_rng(99)
    nus = np.sort(rng.uniform(0.0, 90.0, size=60))
    cf = CountingFunction(sorted_nus=nus, domain_volume=1.0)
    for lam in (10.0, 50.0, 100.0):
        r05 = cf.riesz_mean(lam, 0.5)
        r10 = cf.riesz_mean(lam, 1.0)
        r15 = cf.riesz_mean(lam, 1.5)
        assert r10 <= math.sqrt(lam) * r05 + 1e-12
        assert r15 <= math.sqrt(lam) * r10 + 1e-12


def test_ratio_rows():
    rows = ratio_rows()
    assert len(rows) == 19
    assert [d for d, _ in rows] == list(range(2, 21))
    assert all(r > 1.0 for _, r in rows)
    assert rows[0][1] == pytest.approx(1.1895953348687343)
    with pytest.raises(ValueError):
        ratio_rows(d_min=1)
    with pytest.raises(ValueError):
        ratio_rows(d_min=5, d_max=4)


def test_dimensions_follow_the_whole_number_rule():
    """A float d_max once failed in range() with a TypeError, and a float or
    bool dimension of a counting function at its first bound check."""
    for d_min, d_max in ((2, 3.5), (2.0, 3), (True, 3)):
        with pytest.raises(ValueError, match="dimension must be an integer"):
            ratio_rows(d_min, d_max)
    assert ratio_rows(np.int64(2), np.int64(3)) == ratio_rows(2, 3)
    for dim in (2.5, 2.0, True):
        with pytest.raises(ValueError, match="dimension must be an integer"):
            CountingFunction([1.0], 1.0, dim=dim)
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        CountingFunction([1.0], 1.0, dim=0)


def test_polya_rows_structure():
    cf = _free_cf(kmax=4)
    rows = polya_rows(cf, 30.0)
    assert rows[0] == (0.0, 0, 0.0)
    # three eigenvalues below 30, each contributing a vertical pair
    jump_rows = [r for r in rows if r[0] not in (0.0, 30.0)]
    assert len(jump_rows) == 6
    for before, after in zip(jump_rows[0::2], jump_rows[1::2]):
        assert before[0] == after[0]
        assert after[1] == before[1] + 1
        assert before[2] == after[2]
    assert rows[-1][0] == 30.0
    assert rows[-1][1] == cf.count_through(30.0)


def test_polya_rows_respects_cutoff():
    cf = CountingFunction(sorted_nus=np.array([1.0]), domain_volume=1.0, cutoff=5.0)
    with pytest.raises(IncompleteTableError):
        polya_rows(cf, 6.0)
