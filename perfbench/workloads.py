"""The benchmark's workloads.

A job has two timed steps: ``make_table`` returns the certified table
(``table_s``) and ``run_checks`` does everything after it, artifacts
included (``check_s``).  ``verify`` then compares the outputs with the
reference data and raises ``checks.Mismatch``; it is not timed.  A step
much shorter than a second runs as a block of repeats, and the job reports
the block's time per repeat.

Every library call goes through a module attribute (``hl.sweep``, not a
name bound at import), so the traced run's wrappers see it.  See
README.md for why each workload exists.
"""

import json
import math
import os
import random

import numpy as np

import hyperlap as hl
import hyperlap.svgplot  # not imported by the package; makes hl.svgplot available
import checks
from checks import expect

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
PAPER_VOLUME = math.pi * (math.e - 1.0 / math.e)  # width-pi strip over t in (-1, 1)
TOL = 1e-10


def _read(name):
    with open(os.path.join(REFERENCE, name)) as fh:
        return fh.read()


def _gammas(seed, count):
    rng = random.Random(seed)
    return [rng.uniform(0.5, 3.0) for _ in range(count)]


def _staircase_svg(rows):
    """The staircase figure of ``hyperlap polya --svg``."""
    lam = [r[0] for r in rows]
    return hl.svgplot.line_plot(
        [("counting function", lam, [float(r[1]) for r in rows]),
         ("semiclassical line", lam, [r[2] for r in rows])],
        title="eigenvalue staircase vs semiclassical line",
        xlabel="lambda",
        ylabel="count",
    )


def _sorted_nus(rows):
    return np.sort(np.array([nu for _, _, nu in rows]))


class PaperTable:
    """The work of ``hyperlap polya --cutoff C`` on the paper's strip.

    The paper fixes the problem, so the seed changes nothing.  The
    benchmarked workload uses C = 50 (10 modes); ``paper-table-full`` is
    the paper's C = 1000 (70 modes, about 75 s a job), run by hand for
    the committed reference run because it cannot fit a benchmark run.
    """

    table_repeats = 1
    check_repeats = 40
    grid = 10000

    def __init__(self, seed, outdir, cutoff):
        self.cutoff = cutoff
        self.outdir = outdir
        self.ell_max, self.rows = checks.expected_table(
            checks.read_rows(_read("paper-1000.csv")), cutoff
        )

    def make_table(self):
        return hl.sweep(hl.Interval(-1.0, 1.0), self.cutoff, tol=TOL, n=400)

    def run_checks(self, table):
        cf = hl.CountingFunction.from_table(table, PAPER_VOLUME)
        report = hl.verify_bound(cf, "polya", self.cutoff, grid=self.grid)
        rows = hl.polya_rows(cf, self.cutoff)
        svg = _staircase_svg(rows)
        csv = "lambda,count,bound\n" + "".join(
            f"{a:.17g},{b},{c:.17g}\n" for a, b, c in rows
        )
        for name, text in (
            ("polya.csv", csv),
            ("polya.svg", svg),
            ("report.json", json.dumps(report.to_json_dict(), indent=2) + "\n"),
        ):
            with open(os.path.join(self.outdir, name), "w", newline="") as fh:
                fh.write(text)
        return report, rows, svg

    def verify(self, table, outputs):
        report, rows, svg = outputs
        checks.check_table(table, self.ell_max, self.rows)
        nus = table.nus()
        expect(len(table.nus(through=self.cutoff)) == int(np.sum(nus <= self.cutoff)), "N(cutoff)")
        checks.check_bound(report, "polya", nus, self.cutoff, self.grid, PAPER_VOLUME)
        checks.check_polya_rows(rows, nus, self.cutoff, PAPER_VOLUME)
        checks.check_svg(svg, 2)
        with open(os.path.join(self.outdir, "report.json")) as fh:
            expect(json.load(fh)["min_margin"] == report.min_margin, "report.json")
        with open(os.path.join(self.outdir, "polya.csv")) as fh:
            expect(sum(1 for _ in fh) == len(rows) + 1, "polya.csv row count")
        with open(os.path.join(self.outdir, "polya.svg")) as fh:
            expect(fh.read() == svg, "polya.svg contents")


class TraceFamily:
    """``family_table`` on the width-2pi strip, then ``lt_check`` at 4 gammas.

    The coupling (ell/2)^2 enters through ``kappa_fn`` and the per-point
    ``PotentialSpec.extra`` callable, not the ell^2 fast path.
    """

    table_repeats = 1
    check_repeats = 4000
    height = 100.0

    def __init__(self, seed, outdir):
        self.domain = hl.ProductDomain(x_length=2.0 * math.pi)
        self.gammas = _gammas(seed, 4)
        ref = checks.read_rows(_read("trace-family.csv"))
        expect(len(ref) == 105, "trace-family reference must hold 105 rows")
        self.ell_max, self.rows = checks.expected_table(ref, self.height)
        expect(self.ell_max == 36, "trace-family reference must give ell_max 36")
        # the trace inequality on (x_length, a, b) = (2 pi, 1/e, e), from the reference
        nus = _sorted_nus(ref)
        below = nus[nus < self.height]
        volume = 2.0 * math.pi * (math.e - 1.0 / math.e)
        self.ratios = [
            float(np.sum((self.height - below) ** g))
            / (checks.lt_best_known(g) * self.height ** (g + 1.0) * volume)
            for g in self.gammas
        ]

    def make_table(self):
        return hl.family_table(self.domain, self.height, tol=TOL, n=200)

    def run_checks(self, table):
        pot = hl.BoxPotential(domain=self.domain, height=self.height)
        return [hl.lt_check(pot, g, table=table) for g in self.gammas]

    def verify(self, table, outputs):
        checks.check_table(table, self.ell_max, self.rows)
        for report, ratio in zip(outputs, self.ratios):
            expect(
                checks.close(report.ratio, ratio, checks.ROUNDING) and report.passed,
                f"lt_check gamma {report.gamma!r}: ratio {report.ratio!r}, expected {ratio!r}",
            )


class BoundsGrid:
    """Bound checks on the committed cutoff-1000 table; no eigensolve runs.

    The table step parses the reference CSV into an EigenTable and a
    CountingFunction, which is how a stored table reaches the checks.
    Not in BENCHMARK.json: its pure-Python run times spread 13-32 % from
    run to run on a shared 2-CPU host, beyond any bound allowed there.
    """

    table_repeats = 100
    check_repeats = 1
    cutoff = 1000.0
    grid = 10000
    riesz_sample = 500

    def __init__(self, seed, outdir):
        self.text = _read("paper-1000.csv")
        self.ref = checks.read_rows(self.text)
        self.nus = _sorted_nus(self.ref)
        self.gammas = _gammas(seed, 3)
        self.sample = np.random.default_rng(seed).choice(
            self.grid, self.riesz_sample, replace=False
        )
        self.sobolev = json.loads(_read("sobolev.json"))

    def make_table(self):
        rows = hl.table_rows_from_csv(self.text)
        table = hl.EigenTable(
            entries=tuple(rows),
            cutoff=self.cutoff,
            ell_max=1 + max(ell for ell, _, _ in rows),
            resolution=400,
            tolerance=TOL,
        )
        return table, hl.CountingFunction.from_table(table, PAPER_VOLUME)

    def run_checks(self, made):
        table, cf = made
        reports = [hl.verify_bound(cf, kind, self.cutoff, grid=self.grid)
                   for kind in ("polya", "counting", "product")]
        reports += [hl.verify_bound(cf, "riesz", self.cutoff, grid=self.grid, gamma=g)
                    for g in self.gammas]
        rows = hl.polya_rows(cf, self.cutoff)
        svg = _staircase_svg(rows)
        sobolev = [hl.sobolev_check(hl.trial_profile(name)) for name in hl.TRIAL_NAMES]
        round_trip = hl.table_rows_from_csv(table.to_csv())
        return reports, rows, svg, sobolev, round_trip

    def verify(self, made, outputs):
        table, cf = made
        reports, rows, svg, sobolev, round_trip = outputs
        expect(list(table.entries) == self.ref, "parsed table differs from the reference")
        expect(table.ell_max == 71, f"ell_max {table.ell_max}, expected 71")
        expect(cf.count_through(self.cutoff) == 554, "N(1000) must be 554")
        kinds = ["polya", "counting", "product"] + ["riesz"] * len(self.gammas)
        for report, kind, gamma in zip(reports, kinds, [None] * 3 + self.gammas):
            checks.check_bound(report, kind, self.nus, self.cutoff, self.grid,
                               PAPER_VOLUME, gamma=gamma, sample=self.sample)
        checks.check_polya_rows(rows, self.nus, self.cutoff, PAPER_VOLUME)
        checks.check_svg(svg, 2)
        expect([r.name for r in sobolev] == [r["name"] for r in self.sobolev], "sobolev names")
        for got, ref in zip(sobolev, self.sobolev):
            expect(
                got.passed and got.nodes == ref["nodes"]
                and checks.close(got.lhs, ref["lhs"], checks.ROUNDING)
                and checks.close(got.rhs, ref["rhs"], checks.ROUNDING),
                f"sobolev {got.name}: {got.to_json_dict()} vs {ref}",
            )
        expect(round_trip == list(table.entries), "to_csv round trip changed the table")


WORKLOADS = {
    "paper-table": lambda seed, outdir: PaperTable(seed, outdir, cutoff=50.0),
    "paper-table-full": lambda seed, outdir: PaperTable(seed, outdir, cutoff=1000.0),
    "trace-family": TraceFamily,
    "bounds-grid": BoundsGrid,
}
