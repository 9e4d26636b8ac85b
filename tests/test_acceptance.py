"""Acceptance gate: one test per shipped claim, each printing a PASS/FAIL line.

Every test states its quantitative claim at the advertised tolerance and
runtime budget.  Nothing here is weakened to make the suite green: a claim
the measurements contradict fails honestly.
"""

import math
import time

import numpy as np
import pytest

from hyperlap import (
    BoxPotential,
    CountingFunction,
    Interval,
    ProductDomain,
    TRIAL_NAMES,
    assemble_fd,
    constant_ratio,
    lt_check,
    lt_classical,
    product_riesz_rhs,
    sobolev_check,
    solve_certified,
    trial_profile,
    verify_bound,
)
from hyperlap.eigen import _sturm_counts

from conftest import fd_eigenvalues

IV = Interval(-1.0, 1.0)
STRIP_VOLUME = math.pi * (math.e - 1.0 / math.e)


def _nu1(ell):
    # every ground state in question lies below 1100
    return float(solve_certified(IV, ell ** 2, 1100.0, n=400)[0])


def _fd_counts(couplings, probe, m=8000):
    """FD Sturm counts strictly below ``probe``, one per coupling, in one batched pass."""
    ops = [assemble_fd(IV, coupling, m=m) for coupling in couplings]
    diag = np.stack([op.diag for op in ops], axis=1)
    return _sturm_counts(diag, ops[0].offdiag ** 2, np.full(len(ops), probe))


def test_criterion_1_spectral_accuracy(criterion):
    t0 = time.time()
    # the cutoff sits 0.1 % above the 150th exact value
    spec = solve_certified(IV, 0.0, (150 * math.pi / 2.0) ** 2 * 1.001, n=400)
    elapsed = time.time() - t0
    k = np.arange(1, 151)
    exact = (k * math.pi / 2.0) ** 2
    rel = np.abs(spec[:150] - exact) / exact
    ok = rel[:100].max() <= 1e-10 and rel.max() <= 1e-8 and elapsed < 30.0
    criterion(
        1,
        "ell=0 eigenvalues at n=400 match (k pi/2)^2: rel err <= 1e-10 for "
        "k <= 100 and <= 1e-8 for k <= 150, solve < 30 s",
        ok,
        f"max rel err {rel[:100].max():.2e} (k<=100), {rel.max():.2e} (k<=150), "
        f"{elapsed:.2f} s",
    )


def test_criterion_2_staircase_below_semiclassical_line(criterion, full_table):
    table, sweep_seconds = full_table
    t0 = time.time()
    cf = CountingFunction.from_table(table, STRIP_VOLUME)
    report = verify_bound(cf, "polya", 1000.0, grid=10000)
    elapsed = sweep_seconds + (time.time() - t0)
    ok = (not report.violated) and elapsed < 600.0
    criterion(
        2,
        "N(lam) <= (e - 1/e) lam / 4 on (0, 1000] at all jumps plus a "
        "10000-point grid, sweep plus verification < 600 s",
        ok,
        f"min margin {report.min_margin:.6f} at lambda {report.argmin_lambda:g}, "
        f"N(1000) = {cf.count(1000.0)}, {elapsed:.1f} s",
    )


def test_criterion_3_mode_truncation_at_fifty(criterion, full_table):
    """Mode cutoff of the sweep to 1000 on (-1, 1): ell_max = 71.

    "fifty" names the criterion as first shipped, which claimed ell_max = 50.
    The equation refutes it: nu1(50) is about 544.6, well below 1000.  The
    solver-free bracket in test_sl_family backs the corrected value.
    """
    table, _ = full_table
    nu1_49 = _nu1(49)
    nu1_50 = _nu1(50)
    nu1_70 = _nu1(70)
    nu1_71 = _nu1(71)
    fd_70, fd_71 = _fd_counts([4900.0, 5041.0], 1000.0)
    ok = (
        table.ell_max == 71
        and nu1_70 <= 1000.0 < nu1_71
        and fd_70 >= 1
        and fd_71 == 0
    )
    criterion(
        3,
        "adaptive mode cutoff for the sweep to 1000 equals 71: first "
        "eigenvalue at ell=71 exceeds 1000 while ell=70 does not",
        ok,
        f"measured ell_max {table.ell_max}, nu1(70) = {nu1_70:.3f}, "
        f"nu1(71) = {nu1_71:.3f}, FD count below 1000: {fd_70} at ell=70, "
        f"{fd_71} at ell=71; the retired claim 50 had nu1(49) = {nu1_49:.3f}, "
        f"nu1(50) = {nu1_50:.3f}",
    )


def _richardson_pair(coupling, hi, m):
    coarse_op = assemble_fd(IV, coupling, m=m)
    fine_op = assemble_fd(IV, coupling, m=2 * m)
    coarse = fd_eigenvalues(coarse_op, 0.0, hi)
    fine = fd_eigenvalues(fine_op, 0.0, hi)
    h1, h2 = IV.length / (m + 1), IV.length / (2 * m + 1)
    k = min(coarse.size, fine.size)
    return (fine[:k] * h1**2 - coarse[:k] * h2**2) / (h1**2 - h2**2)


def test_criterion_4_oracle_cross_validation(criterion, full_table):
    table, _ = full_table
    worst = 0.0
    for ell in (1, 5, 10):
        # 1500 lies above the 20th eigenvalue of each of these modes
        w = solve_certified(IV, ell ** 2, 1500.0, n=400)[:20]
        extrap = _richardson_pair(ell ** 2, float(w[-1]) * 1.05 + 5.0, m=2000)[:20]
        worst = max(worst, float(np.max(np.abs(w - extrap) / np.abs(extrap))))
    fd_counts = _fd_counts([ell ** 2 for ell in range(1, 51)], 1000.0)
    mismatches = []
    for ell, c_fd in enumerate(fd_counts, start=1):
        c_gal = int(np.sum(table.mode_values(ell) < 1000.0))
        if c_fd != c_gal:
            mismatches.append((ell, c_gal, int(c_fd)))
    ok = worst <= 1e-8 and not mismatches
    criterion(
        4,
        "20 smallest eigenvalues for ell in {1,5,10} match the Richardson "
        "FD oracle to 1e-8 relative; Sturm count below 1000 matches the "
        "Galerkin count for every ell <= 50",
        ok,
        f"max rel deviation {worst:.2e}, count mismatches {mismatches or 'none'}",
    )


def test_criterion_5_constant_identities(criterion):
    worst = 0.0
    for gamma in (0.5, 1.0, 1.5, 2.0):
        for d in range(2, 9):
            prod = lt_classical(gamma, 1) * lt_classical(gamma + 0.5, d - 1)
            ref = lt_classical(gamma, d)
            worst = max(worst, abs(prod - ref) / ref)
    for d in range(2, 9):
        mom = (1.0 + d / 2.0) * lt_classical(1.0, d)
        ref = lt_classical(0.0, d)
        worst = max(worst, abs(mom - ref) / ref)
    ok = worst <= 1e-12
    criterion(
        5,
        "product rule L(g,1) L(g+1/2,d-1) = L(g,d) and moment identity "
        "(1 + d/2) L(1,d) = L(0,d) to 1e-12 relative for g in {1/2..2}, "
        "d in {2..8}",
        ok,
        f"max rel deviation {worst:.2e}",
    )


def test_criterion_6_constant_ratio_curve(criterion):
    ratios = {d: constant_ratio(d) for d in range(2, 21)}
    dev = abs(ratios[2] - 1.18959)
    ok = all(r > 1.0 for r in ratios.values()) and dev <= 1e-4
    criterion(
        6,
        "product/direct constant ratio > 1 for d in {2..20} and "
        "ratio(2) = 1.18959 within 1e-4",
        ok,
        f"ratio(2) = {ratios[2]:.7f}, min over d = "
        f"{min(ratios.values()):.7f} at d = {min(ratios, key=ratios.get)}",
    )


def test_criterion_7_trace_inequality_grid(criterion, full_table):
    table, _ = full_table
    dom = ProductDomain()
    worst_ratio = 0.0
    all_passed = True
    for gamma in (0.5, 1.0, 1.5):
        for lam in (10.0, 100.0, 1000.0):
            rep = lt_check(BoxPotential(domain=dom, height=lam), gamma, table=table)
            worst_ratio = max(worst_ratio, rep.ratio)
            all_passed = all_passed and rep.passed and rep.ratio <= 1.0
    cf = CountingFunction.from_table(table, STRIP_VOLUME)
    riesz_ok = True
    for gamma in (0.5, 0.75):
        rep = verify_bound(cf, "riesz", 1000.0, grid=1000, gamma=gamma)
        riesz_ok = riesz_ok and not rep.violated
        for lam in (10.0, 100.0, 1000.0):
            lhs = cf.riesz_mean(lam, gamma)
            riesz_ok = riesz_ok and lhs <= product_riesz_rhs(lam, gamma, 2, STRIP_VOLUME)
    ok = all_passed and riesz_ok
    criterion(
        7,
        "trace inequality ratio <= 1 for gamma in {1/2,1,3/2} x heights "
        "{10,100,1000}; Riesz-mean product bound holds for gamma in "
        "{0.5,0.75} on the same table",
        ok,
        f"worst trace ratio {worst_ratio:.6f}",
    )


def test_criterion_8_dual_inequality_trials(criterion):
    margins = {}
    ok = True
    for name in TRIAL_NAMES:
        rep = sobolev_check(trial_profile(name))
        margins[name] = rep.margin
        ok = ok and rep.margin >= -1e-9 * abs(rep.rhs)
    ok = ok and len(TRIAL_NAMES) == 5 and "bump" in TRIAL_NAMES
    tight = min(margins, key=margins.get)
    criterion(
        8,
        "dual kinetic-energy inequality margin >= -1e-9 RHS on 5 trial "
        "profiles including the near-degenerate narrow bump",
        ok,
        f"tightest margin {margins[tight]:.3e} ({tight})",
    )


def test_criterion_9_counting_algebra(criterion, full_table):
    table, _ = full_table
    cf = CountingFunction.from_table(table, STRIP_VOLUME)
    rng = np.random.default_rng(20260814)
    cheb_ok = True
    worst = 0.0
    for _ in range(10):
        lam = float(rng.uniform(0.0, 990.0))
        ups = float(rng.uniform(lam + 1.0, 1000.0))
        lhs = cf.count(lam) * (ups - lam)
        rhs = cf.riesz_mean(ups, 1.0)
        cheb_ok = cheb_ok and lhs <= rhs * (1.0 + 1e-12)
        if rhs > 0.0:
            worst = max(worst, lhs / rhs)
    al_ok = True
    for lam in (100.0, 1000.0):
        r05 = cf.riesz_mean(lam, 0.5)
        r10 = cf.riesz_mean(lam, 1.0)
        r15 = cf.riesz_mean(lam, 1.5)
        root = math.sqrt(lam)
        al_ok = al_ok and r10 <= root * r05 * (1.0 + 1e-12)
        al_ok = al_ok and r15 <= root * r10 * (1.0 + 1e-12)
    ok = cheb_ok and al_ok
    criterion(
        9,
        "count bound N(L) <= riesz(U,1)/(U - L) for 10 random pairs "
        "L < U <= 1000; Riesz-mean monotonicity 0.5 -> 1 -> 1.5 at "
        "lambda in {100, 1000}",
        ok,
        f"worst count/bound ratio {worst:.4f}",
    )
