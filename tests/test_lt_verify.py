"""Tests for the trace-inequality and dual-inequality experiments."""

import math

import numpy as np
import pytest

from hyperlap import (
    EXCESS,
    BoxPotential,
    IncompleteTableError,
    ProductDomain,
    QuadratureError,
    SobolevTrialFunction,
    TRIAL_NAMES,
    family_table,
    hyperbolic_volume,
    lt_check,
    potential_integral,
    sobolev_check,
    sweep,
    trial_profile,
)

MODEL = ProductDomain()


@pytest.fixture(scope="module")
def model_table():
    return family_table(MODEL, 40.0, n=64)


def test_domain_defaults():
    assert MODEL.x_length == math.pi
    assert MODEL.interval.alpha == pytest.approx(-1.0)
    assert MODEL.interval.beta == pytest.approx(1.0)


def test_domain_validation():
    with pytest.raises(ValueError):
        ProductDomain(x_length=0.0)
    with pytest.raises(ValueError):
        ProductDomain(a=2.0, b=1.0)
    with pytest.raises(ValueError):
        ProductDomain(a=0.0, b=1.0)
    with pytest.raises(ValueError):
        ProductDomain(b=float("inf"))


def test_transverse_eigenvalues():
    assert MODEL.transverse(1) == pytest.approx(1.0)
    assert MODEL.transverse(3) == pytest.approx(9.0)
    wide = ProductDomain(x_length=2.0 * math.pi)
    assert wide.transverse(2) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        MODEL.transverse(0)
    with pytest.raises(ValueError):
        MODEL.transverse(1.5)


def test_hyperbolic_volume_examples():
    assert hyperbolic_volume(MODEL) == pytest.approx(math.pi * (math.e - 1.0 / math.e))
    assert hyperbolic_volume(ProductDomain(x_length=1.0, a=1.0, b=2.0)) == 0.5
    thin = ProductDomain(x_length=1.0, a=1.0, b=1.0 + 1e-9)
    assert hyperbolic_volume(thin) < 1e-8


def test_box_potential_validation():
    with pytest.raises(ValueError):
        BoxPotential(domain=MODEL, height=0.0)
    with pytest.raises(ValueError):
        BoxPotential(domain=MODEL, height=float("nan"))


def test_potential_integral_power_law():
    vol = hyperbolic_volume(MODEL)
    pot = BoxPotential(domain=MODEL, height=4.0)
    assert potential_integral(pot, 0.5) == pytest.approx(8.0 * vol, rel=1e-12)
    assert potential_integral(pot, 1.0) == pytest.approx(16.0 * vol, rel=1e-12)
    unit = BoxPotential(domain=MODEL, height=1.0)
    for gamma in (0.5, 1.0, 2.0):
        scaled = potential_integral(pot, gamma)
        base = potential_integral(unit, gamma)
        assert scaled == pytest.approx(4.0 ** (gamma + 1.0) * base, rel=1e-12)
    with pytest.raises(ValueError):
        potential_integral(pot, 0.25)


def test_family_table_model_domain(model_table):
    assert model_table.cutoff == 40.0
    assert model_table.ell_max >= 2
    assert np.all(model_table.nus() > 0.0)


def test_family_table_model_domain_is_the_plain_sweep(model_table):
    assert model_table.entries == sweep(MODEL.interval, 40.0, n=64).entries


def test_family_table_other_width():
    wide = ProductDomain(x_length=2.0 * math.pi)
    table = family_table(wide, 10.0, n=64)
    narrow = family_table(MODEL, 10.0, n=64)
    # quarter-size transverse eigenvalues admit more modes below the cutoff
    assert table.ell_max > narrow.ell_max
    assert table.nus().size > narrow.nus().size


def test_lt_check_holds_on_model(model_table):
    pot = BoxPotential(domain=MODEL, height=40.0)
    for gamma in (0.5, 1.0, 1.5):
        report = lt_check(pot, gamma, table=model_table)
        assert report.passed
        assert 0.0 < report.ratio <= 1.0
        assert report.lhs == pytest.approx(report.ratio * report.rhs)


def test_lt_check_below_ground_state(model_table):
    pot = BoxPotential(domain=MODEL, height=3.0)
    report = lt_check(pot, 1.0, table=model_table)
    assert report.lhs == 0.0
    assert report.ratio == 0.0
    assert report.passed


def test_lt_check_lhs_monotone_in_height(model_table):
    vals = []
    for height in (10.0, 20.0, 40.0):
        pot = BoxPotential(domain=MODEL, height=height)
        vals.append(lt_check(pot, 1.0, table=model_table).lhs)
    assert vals[0] < vals[1] < vals[2]


def test_lt_check_table_reuse_matches_fresh(model_table):
    pot = BoxPotential(domain=MODEL, height=20.0)
    reused = lt_check(pot, 1.0, table=model_table)
    fresh = lt_check(pot, 1.0, n=64)
    assert reused.lhs == pytest.approx(fresh.lhs, rel=1e-9)
    assert reused.rhs == pytest.approx(fresh.rhs, rel=1e-15)


def test_lt_check_incomplete_table(model_table):
    pot = BoxPotential(domain=MODEL, height=50.0)
    with pytest.raises(IncompleteTableError):
        lt_check(pot, 1.0, table=model_table)


def test_lt_check_gamma_validation(model_table):
    pot = BoxPotential(domain=MODEL, height=10.0)
    with pytest.raises(ValueError):
        lt_check(pot, 0.3, table=model_table)


def test_lt_check_excess_override(model_table):
    pot = BoxPotential(domain=MODEL, height=40.0)
    base = lt_check(pot, 1.0, table=model_table)
    loose = lt_check(pot, 1.0, table=model_table, excess=1.0)
    assert loose.ratio == pytest.approx(EXCESS * base.ratio, rel=1e-12)


def test_lt_report_json(model_table):
    pot = BoxPotential(domain=MODEL, height=40.0)
    d = lt_check(pot, 1.0, table=model_table).to_json_dict()
    assert sorted(d) == ["gamma", "lambda", "lhs", "passed", "ratio", "rhs"]


def test_sobolev_sine_passes():
    report = sobolev_check(trial_profile("sine"))
    assert report.passed
    assert report.margin > 0.0
    assert report.lhs > report.rhs > 0.0
    assert report.nodes <= 4096


def test_sobolev_interpolated_derivatives_pass():
    report = sobolev_check(trial_profile("cos2"))
    assert report.passed
    assert report.margin >= -1e-9 * abs(report.rhs)


def test_sobolev_all_named_trials_defined():
    assert set(TRIAL_NAMES) == {"sine", "cos2", "bump", "skew", "highmode"}
    for name in TRIAL_NAMES:
        trial = trial_profile(name)
        assert trial.name == name


def test_sobolev_homogeneity():
    """Scaling the trial by c multiplies both sides by c^4."""
    base = trial_profile("sine")
    c = 3.0
    scaled = SobolevTrialFunction(
        name="scaled",
        x_profile=lambda x: c * base.x_profile(x),
        t_profile=base.t_profile,
        dx_profile=lambda x: c * base.dx_profile(x),
        dt_profile=base.dt_profile,
    )
    r0 = sobolev_check(base)
    r1 = sobolev_check(scaled)
    assert r1.lhs == pytest.approx(c**4 * r0.lhs, rel=1e-9)
    assert r1.rhs == pytest.approx(c**4 * r0.rhs, rel=1e-9)
    assert r1.passed == r0.passed


def test_sobolev_zero_trial():
    zero = SobolevTrialFunction(
        name="zero",
        x_profile=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        t_profile=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        dx_profile=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        dt_profile=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
    )
    report = sobolev_check(zero)
    assert report.lhs == 0.0
    assert report.rhs == 0.0
    assert report.passed


def test_sobolev_unsettled_quadrature_raises():
    rng = np.random.default_rng(5)
    noisy = SobolevTrialFunction(
        name="noise",
        x_profile=lambda x: np.sin(x),
        t_profile=lambda t: rng.uniform(0.5, 1.5, size=np.asarray(t).shape),
        dx_profile=lambda x: np.cos(x),
        dt_profile=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
    )
    with pytest.raises(QuadratureError):
        sobolev_check(noisy, max_nodes=64)


def test_sobolev_custom_domain():
    domain = ProductDomain(x_length=1.0, a=1.0, b=4.0)
    report = sobolev_check(trial_profile("sine", domain=domain), domain=domain)
    assert report.passed
    assert report.margin > 0.0


def test_trial_profile_unknown_name():
    with pytest.raises(ValueError):
        trial_profile("gaussian")


def test_trial_profile_boundary_values():
    for name in TRIAL_NAMES:
        trial = trial_profile(name)
        ends_x = np.array([0.0, math.pi])
        ends_t = np.array([-1.0, 1.0])
        assert np.max(np.abs(np.asarray(trial.x_profile(ends_x)))) <= 1e-12
        assert np.max(np.abs(np.asarray(trial.t_profile(ends_t)))) <= 1e-12
