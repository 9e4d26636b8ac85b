"""What the traced run wraps, and how its spans become per-layer metrics.

Layers are the library's modules.  Kernel figures for dgeev are computed,
not measured: about 10 N^3 flops for eigenvalues only (Hessenberg
reduction plus shifted QR) and 8 N^2 input bytes per call of order N.
Self times on pool threads overlap each other and the BLAS threads, so
they sum to more than the wall time; the module shares are shares of
summed thread time.
"""

import statistics
from collections import defaultdict

from spans import descendants, self_times

DGEEV = "eigen.dense_eigenvalues"
SWEEP = "sl_family.sweep"
MODE = "sl_family.certify_mode"
MODULES = ("discretize", "eigen", "sl_family", "counting", "lt_verify", "svgplot")


def _dgeev(args, kwargs, result):
    n = len(args[0] if args else kwargs["matrix"])
    return {"order": n, "flop_computed": 10 * n ** 3, "bytes_computed": 8 * n * n}


# (module, attribute, span name, attrs(args, kwargs, result), mode)
TARGETS = [
    ("hyperlap.eigen", "dense_eigenvalues", DGEEV, _dgeev, "span"),
    ("hyperlap.eigen", "sturm_count", "eigen.sturm_count",
     lambda a, k, r: {"steps": a[0].m}, "span"),
    ("hyperlap.discretize", "assemble_cheb", "discretize.assemble_cheb",
     lambda a, k, r: {"order": r.order}, "span"),
    ("hyperlap.discretize", "assemble_fd", "discretize.assemble_fd",
     lambda a, k, r: {"order": r.m}, "span"),
    ("hyperlap.discretize", "PotentialSpec.evaluate", "discretize.potential_eval",
     lambda a, k, r: {"points": int(r.size)}, "span"),
    ("hyperlap.sl_family", "sweep", SWEEP, None, "pool"),
    ("hyperlap.sl_family", "find_ell_max", "sl_family.find_ell_max", None, "span"),
    ("hyperlap.sl_family", "_certified", MODE, None, "span"),
    ("hyperlap.sl_family", "table_rows_from_csv", "sl_family.table_rows_from_csv",
     None, "span"),
    ("hyperlap.lt_verify", "family_table", "lt_verify.family_table", None, "span"),
    ("hyperlap.lt_verify", "lt_check", "lt_verify.lt_check", None, "span"),
    ("hyperlap.lt_verify", "sobolev_check", "lt_verify.sobolev_check",
     lambda a, k, r: {"nodes": r.nodes}, "span"),
    ("hyperlap.counting", "verify_bound", "counting.verify_bound",
     lambda a, k, r: {"points": int(r.lambda_grid.size)}, "span"),
    ("hyperlap.counting", "polya_rows", "counting.polya_rows", None, "span"),
    ("hyperlap.svgplot", "line_plot", "svgplot.line_plot",
     lambda a, k, r: {"bytes": len(r)}, "span"),
    ("hyperlap.constants", "gamma_fn", "constants.gamma_fn", None, "count"),
]

# (name, unit, better): the per-layer metrics, in BENCHMARK.json order
METRICS = [
    (DGEEV + ".calls", "count", "lower"),
    (DGEEV + ".self_s", "s", "lower"),
    (DGEEV + ".gflop_computed", "Gflop", "lower"),
    (DGEEV + ".mb_computed", "MB", "lower"),
    (DGEEV + ".gflops", "Gflop/s", "higher"),
    ("discretize.assemble_cheb.calls", "count", "lower"),
    ("discretize.assemble_cheb.self_s", "s", "lower"),
    ("discretize.assemble_fd.calls", "count", "lower"),
    ("discretize.assemble_fd.self_s", "s", "lower"),
    ("discretize.potential_eval.self_s", "s", "lower"),
    ("discretize.potential_eval.points", "count", "lower"),
    ("eigen.sturm_count.calls", "count", "lower"),
    ("eigen.sturm_count.self_s", "s", "lower"),
    ("eigen.sturm_count.steps", "count", "lower"),
    ("sl_family.find_ell_max.self_s", "s", "lower"),
    ("sl_family.find_ell_max.solves", "count", "lower"),
    (SWEEP + ".self_s", "s", "lower"),
    (SWEEP + ".modes", "count", "lower"),
    (SWEEP + ".failures", "count", "lower"),
    (SWEEP + ".pool_busy_frac", "frac", "higher"),
    (MODE + ".self_s", "s", "lower"),
    ("sl_family.table_rows_from_csv.self_s", "s", "lower"),
    ("counting.verify_bound.calls", "count", "lower"),
    ("counting.verify_bound.self_s", "s", "lower"),
    ("counting.verify_bound.points", "count", "lower"),
    ("constants.gamma_fn.calls", "count", "lower"),
    ("counting.polya_rows.self_s", "s", "lower"),
    ("svgplot.line_plot.self_s", "s", "lower"),
    ("svgplot.line_plot.bytes", "B", "lower"),
    ("lt_verify.lt_check.self_s", "s", "lower"),
    ("lt_verify.sobolev_check.self_s", "s", "lower"),
    ("lt_verify.sobolev_check.nodes", "count", "lower"),
] + [(f"share.{m}", "frac", "lower") for m in MODULES] + [
    ("check_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("serial.table_s", "s", "lower"),
    ("serial.ratio", "x", "lower"),
]


def job_metrics(spans, counts, workers):
    """Per-layer metrics of one traced job from its spans and call counts."""
    own = self_times(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[2]].append(span)

    def self_s(name):
        return sum(own[s[0]] for s in by_name[name])

    def total(name, key):
        return sum(s[6].get(key, 0) for s in by_name[name])

    m = {}
    for name in (DGEEV, "discretize.assemble_cheb", "discretize.assemble_fd",
                 "eigen.sturm_count", "counting.verify_bound"):
        m[name + ".calls"] = len(by_name[name])
    for name in (DGEEV, "discretize.assemble_cheb", "discretize.assemble_fd",
                 "discretize.potential_eval", "eigen.sturm_count",
                 "sl_family.find_ell_max", SWEEP, MODE, "sl_family.table_rows_from_csv",
                 "counting.verify_bound", "counting.polya_rows", "svgplot.line_plot",
                 "lt_verify.lt_check", "lt_verify.sobolev_check"):
        m[name + ".self_s"] = self_s(name)
    gflop = total(DGEEV, "flop_computed") / 1e9
    m[DGEEV + ".gflop_computed"] = gflop
    m[DGEEV + ".mb_computed"] = total(DGEEV, "bytes_computed") / 1e6
    m[DGEEV + ".gflops"] = gflop / m[DGEEV + ".self_s"] if gflop else 0.0
    m["discretize.potential_eval.points"] = total("discretize.potential_eval", "points")
    m["eigen.sturm_count.steps"] = total("eigen.sturm_count", "steps")
    m["counting.verify_bound.points"] = total("counting.verify_bound", "points")
    m["svgplot.line_plot.bytes"] = total("svgplot.line_plot", "bytes")
    m["lt_verify.sobolev_check.nodes"] = total("lt_verify.sobolev_check", "nodes")
    m["constants.gamma_fn.calls"] = counts.get("constants.gamma_fn", 0)

    dgeev_ids = {s[0] for s in by_name[DGEEV]}
    m["sl_family.find_ell_max.solves"] = sum(
        len(descendants(spans, s[0]) & dgeev_ids) for s in by_name["sl_family.find_ell_max"]
    )
    sweeps = {s[0] for s in by_name[SWEEP]}
    modes = [s for s in by_name[MODE] if s[1] in sweeps]
    sweep_wall = sum(s[5] - s[4] for s in by_name[SWEEP])
    m[SWEEP + ".modes"] = len(modes)
    m[SWEEP + ".failures"] = sum(1 for s in by_name[SWEEP] if "error" in s[6])
    m[SWEEP + ".pool_busy_frac"] = (
        sum(s[5] - s[4] for s in modes) / (workers * sweep_wall) if sweep_wall else 0.0
    )

    summed = sum(own.values())
    for module in MODULES:
        part = sum(own[s[0]] for s in spans if s[2].split(".")[0] == module)
        m[f"share.{module}"] = part / summed if summed else 0.0
    return m


def median_metrics(per_job):
    """Median of each metric over the traced jobs."""
    return {k: statistics.median(m[k] for m in per_job) for k in per_job[0]}
