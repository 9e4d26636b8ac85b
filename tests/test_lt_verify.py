"""Tests for the trace-inequality and dual-inequality experiments."""

import inspect
import json
import math

import numpy as np
import pytest

from hyperlap import (
    EXCESS,
    BoxPotential,
    EigenTable,
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
from hyperlap import lt_verify
from hyperlap.cli import main

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
    # no normal double holds these: underflow to 0, overflow to inf, and an
    # overflowing power
    for height, gamma in ((1e-170, 1.0), (100.0, 153.0), (100.0, 154.0)):
        with pytest.raises(ValueError, match="out of floating-point range"):
            potential_integral(BoxPotential(domain=MODEL, height=height), gamma)


def test_lt_check_refuses_a_left_side_that_is_not_finite():
    """97^160 overflows: the sum (height - nu)_+^gamma is inf, which is no check."""
    table = EigenTable(entries=((1, 1, 3.0),), cutoff=100.0, ell_max=2,
                       resolution=64, tolerance=1e-10)
    pot = BoxPotential(domain=MODEL, height=100.0)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="left side"):
        lt_check(pot, 160.0, table)


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
    fresh = lt_check(pot, 1.0, family_table(MODEL, 20.0, n=64))
    assert reused.lhs == pytest.approx(fresh.lhs, rel=1e-9)
    assert reused.rhs == pytest.approx(fresh.rhs, rel=1e-15)


def test_lt_check_incomplete_table(model_table):
    pot = BoxPotential(domain=MODEL, height=50.0)
    with pytest.raises(IncompleteTableError):
        lt_check(pot, 1.0, table=model_table)


def test_lt_check_rejects_table_of_another_domain(model_table):
    assert model_table.interval == MODEL.interval
    assert model_table.width == MODEL.x_length
    wide = ProductDomain(x_length=2.0 * math.pi)
    with pytest.raises(ValueError):
        lt_check(BoxPotential(domain=wide, height=20.0), 1.0, table=model_table)
    shifted = ProductDomain(a=0.5)
    with pytest.raises(ValueError):
        lt_check(BoxPotential(domain=shifted, height=20.0), 1.0, table=model_table)


def test_lt_check_gamma_validation(model_table):
    pot = BoxPotential(domain=MODEL, height=10.0)
    with pytest.raises(ValueError):
        lt_check(pot, 0.3, table=model_table)


def test_lt_check_excess_override(model_table):
    pot = BoxPotential(domain=MODEL, height=40.0)
    base = lt_check(pot, 1.0, table=model_table)
    loose = lt_check(pot, 1.0, table=model_table, excess=1.0)
    assert loose.ratio == pytest.approx(EXCESS * base.ratio, rel=1e-12)


@pytest.mark.parametrize("excess", [float("nan"), float("inf"), 0.0, -5.0])
def test_lt_check_rejects_bad_excess_before_the_sweep(excess, model_table, monkeypatch):
    # lt_check reads the table it is given and never sweeps
    monkeypatch.setattr(lt_verify.sl_family, "sweep", None)
    pot = BoxPotential(domain=MODEL, height=20.0)
    with pytest.raises(ValueError, match="excess must be positive and finite"):
        lt_check(pot, 1.0, model_table, excess=excess)


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


def test_sobolev_cos2_passes():
    report = sobolev_check(trial_profile("cos2"))
    assert report.passed
    assert report.margin >= -1e-9 * abs(report.rhs)


def test_sobolev_all_named_trials_defined(tmp_path):
    assert TRIAL_NAMES == ("sine", "cos2", "bump", "skew", "highmode")
    for name in TRIAL_NAMES:
        trial = trial_profile(name)
        assert trial.name == name
    # sobolev --profile all reports in this order
    path = tmp_path / "sobolev.json"
    assert main(["sobolev", "--profile", "all", "--json", str(path)]) == 0
    assert tuple(r["name"] for r in json.loads(path.read_text())) == TRIAL_NAMES


# (nodes, lhs, rhs) of each trial's report, as the per-trial closed forms gave them
PINNED_SOBOLEV = {
    MODEL: {
        "sine": (32, 11.146597664075765, 0.9422955528064384),
        "cos2": (32, 6.949826816049456, 0.5390725401825738),
        "bump": (128, 4.0192558890404575, 0.06178547381212107),
        "skew": (32, 0.00488486348193211, 0.00031695057608050375),
        "highmode": (64, 164.81088462713524, 1.2010906745609358),
    },
    ProductDomain(x_length=1.0, a=1.0, b=4.0): {
        "sine": (32, 1.442207511560094, 0.020184050836615654),
        "cos2": (32, 0.8189723006173941, 0.012985183741587454),
        "bump": (128, 0.1443147712650693, 0.002378546282039794),
        "skew": (32, 0.0010315071508454697, 8.692142669989706e-06),
        "highmode": (64, 15.304287122595646, 0.023781528216470508),
    },
}


@pytest.mark.parametrize("domain", PINNED_SOBOLEV)
@pytest.mark.parametrize("name", TRIAL_NAMES)
def test_sobolev_reports_are_pinned(name, domain):
    nodes, lhs, rhs = PINNED_SOBOLEV[domain][name]
    report = sobolev_check(trial_profile(name), domain)
    assert report.nodes == nodes
    assert report.lhs == pytest.approx(lhs, rel=1e-15, abs=0.0)
    assert report.rhs == pytest.approx(rhs, rel=1e-15, abs=0.0)


def test_sobolev_homogeneity():
    """Scaling the trial by c multiplies both sides by c^4."""
    base = trial_profile("sine")
    c = 3.0
    scaled = SobolevTrialFunction(
        name="scaled",
        u_profile=lambda u: c * base.u_profile(u),
        du_profile=lambda u: c * base.du_profile(u),
        s_profile=base.s_profile,
        ds_profile=base.ds_profile,
    )
    r0 = sobolev_check(base)
    r1 = sobolev_check(scaled)
    assert r1.lhs == pytest.approx(c**4 * r0.lhs, rel=1e-9)
    assert r1.rhs == pytest.approx(c**4 * r0.rhs, rel=1e-9)
    assert r1.passed == r0.passed


def test_sobolev_zero_trial():
    zero = SobolevTrialFunction(
        name="zero",
        u_profile=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
        du_profile=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
        s_profile=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
        ds_profile=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
    )
    report = sobolev_check(zero)
    assert report.lhs == 0.0
    assert report.rhs == 0.0
    assert report.passed


def test_sobolev_unsettled_quadrature_raises(monkeypatch):
    rng = np.random.default_rng(5)
    noisy = SobolevTrialFunction(
        name="noise",
        u_profile=lambda u: np.sin(np.pi * u),
        du_profile=lambda u: np.pi * np.cos(np.pi * u),
        s_profile=lambda s: rng.uniform(0.5, 1.5, size=np.asarray(s).shape),
        ds_profile=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
    )
    monkeypatch.setattr(lt_verify, "_MAX_NODES", 64)
    with pytest.raises(QuadratureError, match="by 64 nodes"):
        sobolev_check(noisy)


@pytest.mark.parametrize("q", [32, 64, 128, 4096])
def test_gauss_legendre_matches_golub_welsch(q):
    # the nodes from dsterf match those of scipy.linalg's tridiagonal
    # eigensolver after the same Newton step, to 2 ulp
    import scipy.linalg

    nodes, weights = lt_verify._gauss_legendre(q)
    k = np.arange(1.0, q)
    x = scipy.linalg.eigvalsh_tridiagonal(np.zeros(q), k / np.sqrt(4.0 * k * k - 1.0))
    p0, p1 = lt_verify._legendre_pair(q, x)
    x = x - p1 * (1.0 - x * x) / (q * (p0 - x * p1))
    assert np.all(np.abs(nodes - x) <= 2.0 * np.spacing(np.abs(x)))
    assert abs(math.fsum(weights) - 2.0) <= 1e-14


def test_gauss_legendre_failed_ql_raises(monkeypatch):
    monkeypatch.setattr(lt_verify, "dsterf", lambda d, e: (d, 1))
    with pytest.raises(QuadratureError, match="info 1"):
        lt_verify._gauss_legendre(32)
    # the command line maps it to exit 3, as it does an unsettled quadrature
    assert main(["sobolev", "--profile", "sine"]) == 3


def test_sobolev_custom_domain():
    domain = ProductDomain(x_length=1.0, a=1.0, b=4.0)
    report = sobolev_check(trial_profile("sine"), domain=domain)
    assert report.passed
    assert report.margin > 0.0


@pytest.mark.parametrize("domain", [MODEL, ProductDomain(x_length=1.0, a=1.0, b=4.0)])
@pytest.mark.parametrize("name", TRIAL_NAMES)
def test_trial_profile_derivatives_are_exact(name, domain):
    """Each closed-form derivative, carried onto the domain by the map
    x = x_length u, t = mid + half s that sobolev_check applies, matches a
    central difference in x or t at interior points, to 1e-6 of the
    derivative's largest value there."""
    trial = trial_profile(name)
    interval = domain.interval
    half = 0.5 * interval.length
    mid = interval.alpha + half
    L = domain.x_length
    inner = np.linspace(0.05, 0.95, 19)
    for f, df, lo, hi in (
        (lambda x: trial.u_profile(x / L), lambda x: trial.du_profile(x / L) / L, 0.0, L),
        (lambda t: trial.s_profile((t - mid) / half),
         lambda t: trial.ds_profile((t - mid) / half) / half,
         interval.alpha, interval.beta),
    ):
        pts = lo + (hi - lo) * inner
        h = 1e-5 * (hi - lo)
        diff = (f(pts + h) - f(pts - h)) / (2.0 * h)
        exact = df(pts)
        scale = np.max(np.abs(exact))
        assert np.max(np.abs(exact - diff)) <= 1e-6 * scale


def test_trial_profile_unknown_name():
    with pytest.raises(ValueError):
        trial_profile("gaussian")


def test_trial_profile_takes_only_a_name():
    """A trial carries no domain, so it cannot be built for one domain and
    checked on another: sobolev_check alone maps it."""
    assert list(inspect.signature(trial_profile).parameters) == ["name"]
    with pytest.raises(TypeError):
        trial_profile("sine", MODEL)


def test_trial_profile_boundary_values():
    for name in TRIAL_NAMES:
        trial = trial_profile(name)
        ends_u = np.array([0.0, 1.0])
        ends_s = np.array([-1.0, 1.0])
        assert np.max(np.abs(np.asarray(trial.u_profile(ends_u)))) <= 1e-12
        assert np.max(np.abs(np.asarray(trial.s_profile(ends_s)))) <= 1e-12


def test_sobolev_rejects_a_profile_of_the_wrong_shape():
    """A profile that does not act on arrays elementwise is refused, by name."""
    scalar = SobolevTrialFunction(
        name="scalar",
        u_profile=np.sin,
        du_profile=np.cos,
        s_profile=lambda s: 1.0,
        ds_profile=lambda s: np.zeros_like(s),
    )
    with pytest.raises(ValueError, match="trial 'scalar': s_profile has shape"):
        sobolev_check(scalar)


@pytest.mark.parametrize(
    "domain",
    [ProductDomain(a=1e-300), ProductDomain(a=1e-200), ProductDomain(x_length=1e300),
     ProductDomain(x_length=1e-300)],
)
def test_sobolev_refuses_sides_that_are_not_finite(domain):
    """On domains this extreme a side overflows: once an OverflowError at
    norm2 ** 2, or node doubling up to _MAX_NODES on an infinite gradient
    side.  Now a ValueError names the trial, as lt_check does for its left
    side."""
    with pytest.raises(ValueError, match="trial 'sine': the sides of the dual inequality"):
        sobolev_check(trial_profile("sine"), domain)
