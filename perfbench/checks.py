"""Independent recomputations that every job's outputs are compared against.

Nothing here calls hyperlap.  Constants come from ``math.gamma``, counts
from ``np.searchsorted`` on sorted eigenvalues, Riesz sums from plain
numpy.  Tolerances are fixed here, before any run: eigenvalues agree to
the table's certification ``tol``; recomputed sums and bounds agree to
rounding (1e-9 relative), since they differ from the library only in
evaluation order and in the Gamma evaluator.
"""

import math

import numpy as np

# The paper's best known excess factor for the one-dimensional gamma = 1
# bound.  Written out, not imported, so a change to the library's value
# shows up as a mismatch.
EXCESS = 1.456
ROUNDING = 1e-9


class Mismatch(Exception):
    """A library output disagrees with the benchmark's recomputation."""


def read_rows(text):
    """(ell, k, nu) triples from the ``ell,k,nu`` CSV format."""
    lines = text.strip().splitlines()
    if lines[0] != "ell,k,nu":
        raise Mismatch(f"unexpected reference header {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        ell, k, nu = line.split(",")
        rows.append((int(ell), int(k), float(nu)))
    return rows


def close(a, b, rel):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def expect(ok, message):
    if not ok:
        raise Mismatch(message)


def lt_classical(gamma, dim=2):
    return math.gamma(gamma + 1.0) / (
        (4.0 * math.pi) ** (dim / 2.0) * math.gamma(gamma + dim / 2.0 + 1.0)
    )


def lt_best_known(gamma, dim=2):
    if gamma >= 1.5:
        return lt_classical(gamma, dim)
    if gamma >= 1.0:
        return EXCESS * lt_classical(gamma, dim)
    return 2.0 * EXCESS * lt_classical(gamma, dim)


def bound_line(kind, lambdas, volume, gamma=None, dim=2):
    """The right-hand side of each bound kind at every lambda."""
    if kind == "polya":
        coef, power = lt_classical(0.0, dim), dim / 2.0
    elif kind == "counting":
        coef = (1.0 + 2.0 / dim) ** (dim / 2.0) * (1.0 + dim / 2.0) * lt_best_known(1.0, dim)
        power = dim / 2.0
    elif kind == "product":
        coef = ((dim + 1.0) / dim) ** ((dim + 1.0) / 2.0) * math.sqrt(dim) * 2.0 * lt_classical(0.5, dim)
        power = dim / 2.0
    elif kind == "riesz":
        coef, power = 2.0 * lt_classical(gamma, dim), gamma + dim / 2.0
    else:
        raise ValueError(f"unknown bound kind {kind!r}")
    return coef * np.asarray(lambdas, dtype=float) ** power * volume


def riesz_sums(nus, lambdas, gamma):
    """sum over nu < lam of (lam - nu)^gamma, for each lam."""
    out = np.empty(len(lambdas))
    for i, lam in enumerate(lambdas):
        below = nus[: np.searchsorted(nus, lam, side="left")]
        out[i] = np.sum((lam - below) ** gamma)
    return out


def expected_table(ref_rows, cutoff, margin=0.05):
    """(ell_max, rows) a certified sweep to ``cutoff`` must reproduce.

    The ground state rises with ell, so ell_max is one past the last mode
    whose ground state is <= cutoff; the table keeps every eigenvalue
    <= cutoff * (1 + margin) of the modes below ell_max.
    """
    ground = sorted(ell for ell, k, nu in ref_rows if k == 1 and nu <= cutoff)
    expect(ground == list(range(1, len(ground) + 1)), "reference modes not consecutive")
    ell_max = len(ground) + 1
    retain = cutoff * (1.0 + margin)
    return ell_max, [r for r in ref_rows if r[0] < ell_max and r[2] <= retain]


def check_table(table, ell_max, rows):
    expect(table.ell_max == ell_max, f"ell_max {table.ell_max}, expected {ell_max}")
    got = list(table.entries)
    expect(
        [(e, k) for e, k, _ in got] == [(e, k) for e, k, _ in rows],
        f"(ell, k) set differs: {len(got)} entries, expected {len(rows)}",
    )
    for (ell, k, nu), (_, _, ref) in zip(got, rows):
        expect(
            abs(nu - ref) <= table.tolerance * max(1.0, abs(ref)),
            f"nu({ell},{k}) = {nu!r}, reference {ref!r}",
        )


def check_bound(report, kind, nus, lam_max, grid, volume, gamma=None, sample=None):
    """Compare a verify_bound report with a searchsorted recomputation.

    Counts are recomputed at every grid point.  Riesz sums cost a pass
    over the eigenvalues per point, so they are recomputed at the
    ``sample`` indices plus the reported minimum: the reported minimum
    must be attained there and no sampled margin may lie below it.
    """
    pts = lam_max * np.arange(1, grid + 1) / grid
    lambdas = np.union1d(pts, np.unique(nus[nus <= lam_max]))
    expect(np.array_equal(report.lambda_grid, lambdas), f"{kind}: lambda grid differs")
    bounds = bound_line(kind, lambdas, volume, gamma)
    expect(
        np.all(np.abs(report.bound_values - bounds) <= ROUNDING * np.abs(bounds)),
        f"{kind}: bound values differ",
    )
    if kind == "riesz":
        idx = np.union1d(sample, [int(np.argmin(report.bound_values - report.n_values))])
        values = riesz_sums(nus, lambdas[idx], gamma)
        expect(
            np.all(np.abs(report.n_values[idx] - values) <= ROUNDING * np.maximum(1.0, values)),
            f"riesz-{gamma:g}: Riesz sums differ",
        )
        bounds = bounds[idx]
    else:
        values = np.searchsorted(nus, lambdas, side="right").astype(float)
        expect(np.array_equal(report.n_values, values), f"{kind}: counts differ")
    i = int(np.argmin(bounds - values))
    low = float(bounds[i] - values[i])
    expect(
        abs(report.min_margin - low) <= ROUNDING * max(1.0, bounds[i]),
        f"{kind}: min_margin {report.min_margin!r}, recomputed {low!r}",
    )
    expect(not report.violated and report.min_margin >= 0.0, f"{kind}: bound violated")


def check_polya_rows(rows, nus, lam_max, volume):
    jumps = np.unique(nus[nus <= lam_max])
    expect(len(rows) in (2 * len(jumps) + 1, 2 * len(jumps) + 2), "polya_rows length")
    expect(tuple(rows[0]) == (0.0, 0, 0.0), "polya_rows must start at the origin")
    before = np.searchsorted(nus, jumps, side="left")
    after = np.searchsorted(nus, jumps, side="right")
    line = bound_line("polya", jumps, volume)
    for i, nu in enumerate(jumps):
        for row, count in ((rows[1 + 2 * i], before[i]), (rows[2 + 2 * i], after[i])):
            expect(
                row[0] == nu and row[1] == count and close(row[2], line[i], ROUNDING),
                f"polya row at {nu!r}: {row!r}",
            )


def check_svg(svg, series):
    expect(svg.startswith("<svg") and svg.endswith("</svg>\n"), "SVG not a whole document")
    expect(svg.count("<polyline") == series, f"SVG needs {series} polylines")
