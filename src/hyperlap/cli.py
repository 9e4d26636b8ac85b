"""Command line interface.

Exit codes: 0 when the requested bound holds (or the command is purely
informational), 1 when a verified bound is violated, 2 on invalid input
(and on input too large to fit in memory), 3 on convergence or
certification failure.
"""

import argparse
import json
import math
import sys

from .constants import EXCESS, _check_excess, lt_best_known, lt_classical
from .counting import CountingFunction, check_bound_args, polya_rows, ratio_rows, verify_bound
from .discretize import Interval
from .errors import CertificationError, ConvergenceError, QuadratureError
from .lt_verify import (
    TRIAL_NAMES,
    BoxPotential,
    ProductDomain,
    family_table,
    lt_check,
    potential_integral,
    sobolev_check,
    trial_profile,
)
from .sl_family import _mode_coupling, solve_certified, sweep
from .svgplot import line_plot


def _write(args, summary, **artifacts):
    """Write each artifact whose flag was given, in the order passed; else print ``summary``.

    Each artifact is a zero-argument callable, so only the ones asked for
    are rendered: the csv and svg ones return text, the json one an object.
    A path of '-' is stdout.
    """
    asked = [(flag, make) for flag, make in artifacts.items() if getattr(args, flag)]
    for flag, make in asked:
        text = make()
        if flag == "json":
            text = json.dumps(text, indent=2) + "\n"
        path = getattr(args, flag)
        if path == "-":
            sys.stdout.write(text)
        else:
            with open(path, "w", newline="") as fh:
                fh.write(text)
    if not asked:
        print(summary)


def _csv_text(header, rows):
    lines = [header]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                cells.append(f"{cell:.17g}")
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _figure(rows, labels, title, xlabel, ylabel):
    """An SVG of one series per column after the first, against the first."""
    xs = [row[0] for row in rows]
    series = [(label, xs, [row[i] for row in rows]) for i, label in enumerate(labels, start=1)]
    return line_plot(series, title=title, xlabel=xlabel, ylabel=ylabel)


def _apply_config(parser, args, argv):
    """The arguments parsed again with the config file's values as defaults.

    Explicit flags win, in every form argparse accepts (--dim 2, --dim=2,
    --di 2), because argparse itself sets them over the defaults.  Each
    value must have its option's type: an int may stand for a float, a
    bool never stands for a number, and options without a type take
    strings.  Required flags are checked after the overlay, so the config
    may supply them too.
    """
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
        defaults = {}
        for key in sorted(data):
            dest = key.replace("-", "_")
            if dest == "config" or dest not in args.option_types:
                raise ValueError(f"unknown config key {key!r}")
            value = data[key]
            want = args.option_types[dest]
            if want is float and type(value) is int:
                value = float(value)
            if type(value) is not want:
                raise ValueError(
                    f"config key {key!r} must be of type {want.__name__}, got {value!r}"
                )
            defaults[dest] = value
        args.subparser.set_defaults(**defaults)
        args = parser.parse_args(argv)
    missing = [flag for dest, flag in args.required.items() if getattr(args, dest) is None]
    if missing:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    return args


def _interval_args(sub):
    sub.add_argument("--alpha", type=float, default=-1.0, help="left end of the t interval")
    sub.add_argument("--beta", type=float, default=1.0, help="right end of the t interval")


def _solver_args(sub, tol=True):
    sub.add_argument(
        "--n", type=int, default=400,
        help="resolution n: Galerkin orders n-1 and 2n-1 are compared",
    )
    if tol:
        sub.add_argument("--tol", type=float, default=1e-10, help="certification tolerance")


def cmd_constants(args):
    _check_excess(args.excess)
    out = {
        "classical": lt_classical(args.gamma, args.dim),
        "theorem": (
            lt_best_known(args.gamma, args.dim, args.excess)
            if args.gamma >= 0.5
            else None
        ),
    }
    tail = f", theorem {out['theorem']:.12g}" if out["theorem"] is not None else ""
    _write(
        args,
        f"gamma={args.gamma} d={args.dim}: classical {out['classical']:.12g}{tail}",
        json=lambda: out,
    )
    return 0


def cmd_ratio(args):
    rows = ratio_rows(args.dmin, args.dmax, args.excess)
    worst = min(rows, key=lambda r: r[1])
    ok = worst[1] > 1.0
    _write(
        args,
        f"ratio over d in [{args.dmin},{args.dmax}]: min {worst[1]:.6f} at d={worst[0]}",
        csv=lambda: _csv_text("d,ratio", rows),
        svg=lambda: _figure(
            [(d, r, 1.0) for d, r in rows],
            ("constant ratio", "break-even"),
            "product vs direct counting constants",
            "dimension",
            "ratio",
        ),
        json=lambda: {
            "d_min": args.dmin,
            "d_max": args.dmax,
            "excess": args.excess,
            "rows": [[d, r] for d, r in rows],
            "all_above_one": ok,
        },
    )
    return 0 if ok else 1


def cmd_eig(args):
    if args.ell < 0:
        raise ValueError(f"mode index must be a nonnegative integer, got {args.ell}")
    nus = solve_certified(
        Interval(args.alpha, args.beta), _mode_coupling(args.ell), args.cutoff, n=args.n
    )
    head = ", ".join(f"{v:.12g}" for v in nus[:5])
    _write(
        args,
        f"ell={args.ell}: {nus.size} eigenvalues <= cutoff; first [{head}]",
        csv=lambda: _csv_text(
            "ell,k,nu", [(args.ell, k, float(nu)) for k, nu in enumerate(nus, start=1)]
        ),
        json=lambda: {
            "ell": args.ell,
            "alpha": args.alpha,
            "beta": args.beta,
            "n": args.n,
            "cutoff": args.cutoff,
            "count": nus.size,
            "nu": [float(v) for v in nus],
        },
    )
    return 0


def _run_sweep(args):
    return sweep(Interval(args.alpha, args.beta), args.cutoff, tol=args.tol, n=args.n)


def cmd_sweep(args):
    table = _run_sweep(args)
    nus = table.nus()
    _write(
        args,
        f"swept {len(table.modes())} modes (ell_max {table.ell_max}), "
        f"{len(table.entries)} certified eigenvalues <= {table.cutoff * (1 + table.margin):g}",
        csv=table.to_csv,
        json=lambda: {
            "cutoff": table.cutoff,
            "ell_max": table.ell_max,
            "resolution": table.resolution,
            "tolerance": table.tolerance,
            "margin": table.margin,
            "modes": len(table.modes()),
            "entries": len(table.entries),
            "nu_min": float(nus[0]) if nus.size else None,
            "nu_max": float(nus[-1]) if nus.size else None,
        },
    )
    return 0


def cmd_polya(args):
    check_bound_args("polya", args.cutoff, args.grid)  # bad input exits 2 before the sweep
    table = _run_sweep(args)
    # the width-pi strip between heights exp(alpha) and exp(beta)
    volume = math.pi * (math.exp(-args.alpha) - math.exp(-args.beta))
    cf = CountingFunction.from_table(table, volume)
    report = verify_bound(cf, "polya", args.cutoff, grid=args.grid)
    rows = polya_rows(cf, args.cutoff)
    state = "VIOLATED" if report.violated else "holds"
    _write(
        args,
        f"semiclassical bound {state} up to {args.cutoff:g}: "
        f"min margin {report.min_margin:.6f} at lambda {report.argmin_lambda:.6f}",
        csv=lambda: _csv_text("lambda,count,bound", rows),
        svg=lambda: _figure(
            rows,
            ("counting function", "semiclassical line"),
            "eigenvalue staircase vs semiclassical line",
            "lambda",
            "count",
        ),
        json=report.to_json_dict,
    )
    return 1 if report.violated else 0


def cmd_ltcheck(args):
    domain = ProductDomain(x_length=args.x_length, a=args.a, b=args.b)
    pot = BoxPotential(domain=domain, height=args.cutoff)
    lt_best_known(args.gamma, 2, args.excess)  # bad input exits 2 before the sweep
    potential_integral(pot, args.gamma)
    table = family_table(domain, args.cutoff, tol=args.tol, n=args.n)
    report = lt_check(pot, args.gamma, table, excess=args.excess)
    state = "holds" if report.passed else "VIOLATED"
    _write(
        args,
        f"trace inequality {state} at gamma={args.gamma} height={args.cutoff:g}: "
        f"ratio {report.ratio:.6f}",
        json=report.to_json_dict,
    )
    return 0 if report.passed else 1


def cmd_sobolev(args):
    domain = ProductDomain(x_length=args.x_length, a=args.a, b=args.b)
    names = list(TRIAL_NAMES) if args.profile == "all" else [args.profile]
    reports = [sobolev_check(trial_profile(name), domain, tol=args.tol) for name in names]
    _write(
        args,
        "\n".join(
            f"{r.name}: dual inequality {'holds' if r.passed else 'VIOLATED'}, "
            f"margin {r.margin:.6g} ({r.nodes} nodes)"
            for r in reports
        ),
        json=lambda: [r.to_json_dict() for r in reports],
    )
    return 0 if all(r.passed for r in reports) else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hyperlap",
        description="eigenvalue bounds for the hyperbolic Laplacian at desk scale",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("constants", help="closed-form bound constants")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--excess", type=float, default=EXCESS)
    p.add_argument("--json", metavar="PATH", help="write JSON ('-' for stdout)")
    p.set_defaults(func=cmd_constants)

    p = subs.add_parser("ratio", help="constant ratio across dimensions")
    p.add_argument("--dmin", type=int, default=2)
    p.add_argument("--dmax", type=int, default=20)
    p.add_argument("--excess", type=float, default=EXCESS)
    p.add_argument("--csv", metavar="PATH")
    p.add_argument("--svg", metavar="PATH")
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(func=cmd_ratio)

    p = subs.add_parser(
        "eig",
        help="one family member, certified",
        description="The Galerkin eigenvalues <= cutoff of one mode, each "
        "certified like a sweep's: resolutions n and 2n agree to 1e-10 "
        "relative and on the count below a gap probe, and the "
        "finite-difference Sturm count at the probe matches.",
    )
    p.add_argument("--ell", type=int, default=0)
    _interval_args(p)
    _solver_args(p, tol=False)
    p.add_argument(
        "--cutoff", type=float, required=True, help="keep the eigenvalues <= cutoff"
    )
    p.add_argument("--csv", metavar="PATH")
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(func=cmd_eig)

    p = subs.add_parser("sweep", help="certified eigenvalue table")
    p.add_argument("--cutoff", type=float, default=1000.0)
    _interval_args(p)
    _solver_args(p)
    p.add_argument("--csv", metavar="PATH")
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("polya", help="staircase vs semiclassical line")
    p.add_argument("--cutoff", type=float, default=1000.0)
    _interval_args(p)
    _solver_args(p)
    p.add_argument("--grid", type=int, default=10000)
    p.add_argument("--csv", metavar="PATH")
    p.add_argument("--json", metavar="PATH")
    p.add_argument("--svg", metavar="PATH")
    p.set_defaults(func=cmd_polya)

    p = subs.add_parser("ltcheck", help="trace inequality for the box potential")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--cutoff", type=float, default=100.0, help="potential height")
    p.add_argument("--x-length", type=float, default=math.pi)
    p.add_argument("--a", type=float, default=1.0 / math.e)
    p.add_argument("--b", type=float, default=math.e)
    _solver_args(p)
    p.add_argument("--excess", type=float, default=EXCESS)
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(func=cmd_ltcheck)

    p = subs.add_parser("sobolev", help="dual inequality on trial functions")
    p.add_argument(
        "--profile", default="all", choices=list(TRIAL_NAMES) + ["all"]
    )
    p.add_argument("--x-length", type=float, default=math.pi)
    p.add_argument("--a", type=float, default=1.0 / math.e)
    p.add_argument("--b", type=float, default=math.e)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(func=cmd_sobolev)

    for sub in subs.choices.values():
        sub.add_argument(
            "--config", metavar="PATH", help="JSON file of long-flag defaults"
        )
        required = [a for a in sub._actions if a.required]
        for action in required:
            # checked after the config overlay (see _apply_config)
            action.required = False
            action.help = f"{action.help or ''} (required here or in --config)".lstrip()
        sub.set_defaults(
            option_types={a.dest: a.type or str for a in sub._actions if a.dest != "help"},
            required={a.dest: a.option_strings[0] for a in required},
            subparser=sub,
        )
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config(parser, args, argv)
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, CertificationError, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
