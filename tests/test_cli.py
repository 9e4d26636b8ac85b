"""End-to-end tests of the command line interface."""

import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
import xml.etree.ElementTree as ET

import pytest

import hyperlap
from hyperlap import TRIAL_NAMES, lt_best_known, lt_classical, sobolev_check, trial_profile
from hyperlap.cli import main

FAST_SWEEP = ["--cutoff", "30", "--n", "64", "--alpha", "-1", "--beta", "1"]


def _run_cli(*args):
    """``python -m hyperlap.cli args`` in a fresh interpreter, importing hyperlap from here."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(hyperlap.__file__)))
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "hyperlap.cli", *args],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def _polylines(svg_text):
    root = ET.fromstring(svg_text)
    return [el for el in root.iter() if el.tag.endswith("polyline")]


def test_constants_json_stdout(capsys):
    rc = main(["constants", "--gamma", "1", "--dim", "2", "--json", "-"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert sorted(out) == ["classical", "theorem"]
    assert out["classical"] == pytest.approx(lt_classical(1.0, 2), rel=1e-15)
    assert out["theorem"] == pytest.approx(lt_best_known(1.0, 2), rel=1e-15)


def test_constants_below_half_has_no_theorem_value(capsys):
    rc = main(["constants", "--gamma", "0.25", "--dim", "3", "--json", "-"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["theorem"] is None
    assert out["classical"] > 0.0


def test_constants_invalid_gamma_exits_two():
    assert main(["constants", "--gamma", "-1", "--dim", "2"]) == 2


def test_gamma_overflow_exits_two(monkeypatch, capsys):
    # Gamma(201) and Gamma(401) overflow a double, and so does the
    # denominator of the constant from about d = 225: that is bad input
    # (exit 2), not a violated bound (exit 1).  So is a potential integral
    # height^(gamma + 1) * volume that underflows (once a ZeroDivisionError),
    # overflows the power (once an OverflowError) or overflows to inf (once
    # rhs Infinity in invalid JSON, exit 0).  ltcheck stops before it sweeps
    # anything.
    monkeypatch.setattr(hyperlap.sl_family, "sweep", None)
    for argv in (
        ["constants", "--gamma", "200", "--dim", "2"],
        ["ltcheck", "--gamma", "400", "--cutoff", "20", "--n", "64"],
        ["ltcheck", "--gamma", "1", "--cutoff", "1e-170", "--n", "16"],
        ["ltcheck", "--gamma", "154", "--cutoff", "100", "--n", "64"],
        ["ltcheck", "--gamma", "153", "--cutoff", "100", "--n", "64", "--json", "-"],
        ["ratio", "--dmax", "400"],
    ):
        assert main(argv) == 2
        assert "out of floating-point range" in capsys.readouterr().err


def test_coupling_overflow_exits_two():
    """A coupling (ell pi / width)^2 past the largest double is bad input:
    exit 2 with a message, no traceback."""
    for argv in (
        ["ltcheck", "--gamma", "1", "--cutoff", "10", "--n", "16", "--x-length", "1e-300"],
        ["eig", "--ell", str(10 ** 160), "--cutoff", "10", "--n", "16"],
    ):
        proc = _run_cli(*argv)
        assert proc.returncode == 2
        assert b"overflows" in proc.stderr and b"Traceback" not in proc.stderr


def test_short_intervals_and_extreme_sobolev_domains_exit_two(capsys):
    """An interval too short or too long for the Galerkin stiffness, one of
    infinite length, and a Sobolev domain where a side overflows, are bad
    input: exit 2 with a one-line error and no numpy warning.  They once
    exited 1 (ZeroDivisionError, OverflowError, an infinite length sizing
    an array), 3 (a failed Ritz solve, an unsettled quadrature) or 0
    (values computed from infinities)."""
    short = ["--alpha", "0", "--cutoff", "10", "--n", "16"]
    for argv in (
        ["sweep", "--beta", "1e-300", *short],
        ["eig", "--beta", "1e-300", *short],
        ["polya", "--beta", "1e-300", *short],
        ["sweep", "--beta", "1e-153", *short],
        ["sweep", "--beta", "1e-155", *short],
        ["eig", "--beta", "1e-155", *short],
        ["eig", "--alpha=-1e160", "--beta", "0", "--cutoff", "10", "--n", "16"],
        ["eig", "--alpha=-1e308", "--beta", "1e308", "--cutoff", "10", "--n", "16"],
        ["sobolev", "--a", "1e-300"],
        ["sobolev", "--a", "1e-200"],
        ["sobolev", "--x-length", "1e300"],
        ["sobolev", "--x-length", "1e-300", "--profile", "sine"],
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


def test_high_intervals_exit_two(capsys):
    """Where exp(2 alpha) overflows no mode reaches the cutoff: every command
    refuses the interval with one line, as eig always did.  The sweep's
    pre-check once raised OverflowError there (exit 1, a traceback)."""
    high = ["--cutoff", "10", "--n", "16"]
    for argv in (
        ["sweep", "--alpha", "400", "--beta", "401", *high],
        ["polya", "--alpha", "400", "--beta", "401", *high],
        ["eig", "--alpha", "400", "--beta", "401", *high],
        ["ltcheck", "--gamma", "1", "--a", "1e174", "--b", "1e175", *high],
    ):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == "error: exp(2t) overflows on the interval\n", argv


@pytest.mark.parametrize("grid", ["0", "-3"])
def test_polya_refuses_a_bad_grid_before_the_sweep(grid, monkeypatch, capsys):
    """verify_bound's argument rule is checked first: an empty grid once
    exited 2 only after the whole sweep."""

    def no_sweep(*args, **kwargs):
        raise AssertionError("polya swept before it checked --grid")

    monkeypatch.setattr(hyperlap.cli, "sweep", no_sweep)
    assert main(["polya", *FAST_SWEEP, "--grid", grid]) == 2
    assert capsys.readouterr().err == f"error: grid must have at least one point, got {grid}\n"


def test_out_of_memory_exits_two(monkeypatch, capsys):
    """An input too large to fit in memory (say a polya grid of 10^12
    points) is bad input, exit 2, not a violated bound."""

    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(hyperlap.cli, "verify_bound", too_large)
    assert main(["polya", *FAST_SWEEP, "--grid", "1000000000000"]) == 2
    assert "Unable to allocate" in capsys.readouterr().err


def test_sweep_straddling_the_cutoff_exits_three(capsys):
    # n = 4 puts mode 1's ground state between 0.872 (at 8) and 1.12 (at 4)
    assert main(["sweep", "--alpha", "-3", "--beta", "3", "--cutoff", "1", "--n", "4"]) == 3
    assert "across the cutoff" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--alpha", "-1", "--beta", "8", "--cutoff", "3.5", "--n", "4"],
        ["eig", "--alpha", "-1", "--beta", "8", "--ell", "1", "--cutoff", "3.5", "--n", "4"],
        ["polya", "--alpha", "-1", "--beta", "8", "--cutoff", "3.5", "--n", "5"],
    ],
)
def test_an_unresolved_ground_state_above_the_cutoff_exits_three(argv, capsys):
    # the true ground state 3.3705 lies below the cutoff, the one at 2n
    # above it: these printed an empty table (polya: a bound that "holds")
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "the true one may lie below the cutoff 3.5; raise n" in captured.err


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 14: certified values are wrong on intervals longer than about 10",
)
@pytest.mark.parametrize(
    "argv",
    [
        ["eig", "--alpha", "-1", "--beta", "19", "--ell", "1", "--cutoff", "5", "--n", "100"],
        ["sweep", "--alpha", "-1", "--beta", "16", "--cutoff", "40", "--n", "200"],
    ],
)
def test_long_interval_certification_failure_exits_three(argv, capsys):
    # an open defect: both print wrong values and exit 0 today; see
    # test_sl_family.test_long_interval_solve_agrees_with_the_short_one_or_refuses
    assert main(argv) == 3


@pytest.mark.parametrize("excess", ["nan", "inf", "0", "-5"])
def test_invalid_excess_exits_two(excess, capsys):
    for argv in (
        ["constants", "--gamma", "1", "--dim", "2"],
        ["constants", "--gamma", "0.25", "--dim", "3"],
        ["ratio"],
        ["ltcheck", "--gamma", "1", "--cutoff", "20", "--n", "64"],
    ):
        assert main([*argv, "--excess", excess]) == 2
        assert "excess must be positive and finite" in capsys.readouterr().err


def test_constants_human_readable(capsys):
    rc = main(["constants", "--gamma", "1.5", "--dim", "2"])
    assert rc == 0
    assert "classical" in capsys.readouterr().out


def test_ratio_csv(tmp_path):
    out = tmp_path / "ratio.csv"
    rc = main(["ratio", "--csv", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "d,ratio"
    assert len(lines) == 20
    for ln in lines[1:]:
        d, r = ln.split(",")
        assert float(r) > 1.0
    assert lines[1].startswith("2,1.18959533486873")


def test_ratio_json_and_svg(tmp_path, capsys):
    jpath = tmp_path / "ratio.json"
    spath = tmp_path / "ratio.svg"
    rc = main(["ratio", "--json", str(jpath), "--svg", str(spath)])
    assert rc == 0
    data = json.loads(jpath.read_text())
    assert data["all_above_one"] is True
    assert len(data["rows"]) == 19
    assert len(_polylines(spath.read_text())) == 2


def test_ratio_validation_exit_two():
    assert main(["ratio", "--dmin", "1"]) == 2


def test_eig_csv_matches_analytic(tmp_path):
    out = tmp_path / "eig.csv"
    rc = main(
        ["eig", "--ell", "0", "--cutoff", "50", "--n", "64", "--csv", str(out)]
    )
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "ell,k,nu"
    assert len(lines) == 5
    for k, ln in enumerate(lines[1:], start=1):
        ell, kk, nu = ln.split(",")
        assert (int(ell), int(kk)) == (0, k)
        assert float(nu) == pytest.approx((k * math.pi / 2.0) ** 2, rel=1e-10)


def test_eig_json(tmp_path):
    jpath = tmp_path / "eig.json"
    rc = main(
        ["eig", "--ell", "1", "--cutoff", "40", "--n", "16", "--json", str(jpath)]
    )
    assert rc == 0
    data = json.loads(jpath.read_text())
    assert sorted(data) == ["alpha", "beta", "count", "cutoff", "ell", "n", "nu"]
    assert data["ell"] == 1
    assert data["count"] == len(data["nu"]) > 0
    assert all(b > a for a, b in zip(data["nu"], data["nu"][1:]))
    assert data["nu"][-1] <= 40.0


@pytest.mark.parametrize("cutoff", ["nan", "inf"])
def test_eig_nonfinite_cutoff_exits_two(cutoff, capsys):
    assert main(["eig", "--ell", "1", "--n", "16", "--cutoff", cutoff]) == 2
    assert "cutoff must be finite" in capsys.readouterr().err


def test_eig_needs_a_cutoff(capsys):
    # every value eig prints is certified, and certification needs a cutoff
    assert main(["eig", "--ell", "3"]) == 2
    assert "required: --cutoff" in capsys.readouterr().err


def test_eig_negative_ell_exits_two(capsys):
    # the coupling is ell^2, so -1 would pass as mode 1 without this check
    assert main(["eig", "--ell", "-1", "--cutoff", "50", "--n", "64"]) == 2
    assert "mode index must be a nonnegative integer" in capsys.readouterr().err


def test_eig_unresolvable_exits_three(capsys):
    # n = 12 resolves mode 1 below 60 too coarsely to agree with n = 24
    assert main(["eig", "--ell", "1", "--cutoff", "60", "--n", "12"]) == 3
    assert "differs between resolutions 12 and 24" in capsys.readouterr().err


@pytest.mark.parametrize("tol, code", [("1e-10", 3), ("nan", 2), ("inf", 2)])
def test_sweep_tol_must_be_finite(tol, code, capsys):
    # n = 12 cannot certify cutoff 60; a tolerance that every error
    # comparison passes (nan, inf) would certify the table anyway
    assert main(["sweep", "--cutoff", "60", "--n", "12", "--tol", tol]) == code
    if code == 2:
        assert "tol must be finite" in capsys.readouterr().err
        assert main(["ltcheck", "--gamma", "1", "--cutoff", "20", "--tol", tol]) == 2


def test_sweep_csv_round_trip(tmp_path):
    out = tmp_path / "table.csv"
    rc = main(["sweep", *FAST_SWEEP, "--csv", str(out)])
    assert rc == 0
    text = out.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "ell,k,nu"
    assert len(lines) > 1
    for ln in lines[1:]:
        _ell, _k, nu = ln.split(",")
        # 17 significant digits round-trip the double exactly
        assert f"{float(nu):.17g}" == nu


def test_sweep_json_summary(tmp_path):
    out = tmp_path / "table.json"
    rc = main(["sweep", *FAST_SWEEP, "--json", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["cutoff"] == 30.0
    assert data["ell_max"] >= 2
    assert data["entries"] > 0
    assert 0.0 < data["nu_min"] < data["nu_max"] <= 30.0 * 1.05


# The sweep's own mode scan is the only source of ell_max: --ell-max and
# the ell-max config key are gone, and every use of them exits 2.


def test_sweep_ell_max_flag(tmp_path):
    for command in ("sweep", "polya"):
        out = tmp_path / f"{command}.csv"
        with pytest.raises(SystemExit) as exc:
            main([command, *FAST_SWEEP, "--ell-max", "20", "--csv", str(out)])
        assert exc.value.code == 2
        assert not out.exists()


def test_sweep_bad_ell_max_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ell-max": 20}))
    assert main(["sweep", *FAST_SWEEP, "--config", str(cfg)]) == 2
    assert "unknown config key 'ell-max'" in capsys.readouterr().err


def test_sweep_too_small_ell_max_exits_two(tmp_path):
    # the value that once asked for an incomplete table
    out = tmp_path / "t.csv"
    with pytest.raises(SystemExit) as exc:
        main(["sweep", *FAST_SWEEP, "--ell-max", "1", "--csv", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_sweep_unresolvable_exits_three():
    assert main(["sweep", "--cutoff", "200", "--n", "8"]) == 3


def test_resolution_past_the_limit_exits_two_at_once(capsys):
    # refused before any quadrature rule or basis table is built
    t0 = time.perf_counter()
    assert main(["sweep", "--cutoff", "30", "--n", "100000000"]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "got 100000000" in capsys.readouterr().err
    # certified commands also solve at 2n, so they stop at n = 2048
    for argv in (
        ["eig", "--cutoff", "30"],
        ["sweep", "--cutoff", "30"],
        ["polya", "--cutoff", "30"],
        ["ltcheck", "--gamma", "1", "--cutoff", "20"],
    ):
        assert main([*argv, "--n", "2049"]) == 2
        assert "need 4 <= n <= 2048, got 2049" in capsys.readouterr().err


def test_polya_outputs(tmp_path):
    cpath = tmp_path / "polya.csv"
    spath = tmp_path / "polya.svg"
    jpath = tmp_path / "polya.json"
    rc = main(
        [
            "polya", *FAST_SWEEP, "--grid", "500",
            "--csv", str(cpath), "--svg", str(spath), "--json", str(jpath),
        ]
    )
    assert rc == 0
    lines = cpath.read_text().strip().split("\n")
    assert lines[0] == "lambda,count,bound"
    assert lines[1] == "0,0,0"
    counts = [int(ln.split(",")[1]) for ln in lines[1:]]
    assert counts == sorted(counts)
    report = json.loads(jpath.read_text())
    assert report["violated"] is False
    assert report["min_margin"] > 0.0
    svg = spath.read_text()
    assert len(_polylines(svg)) == 2
    assert "lambda" in svg


@pytest.mark.parametrize("cutoff", ["3e-323", "5e-324"])
def test_polya_draws_a_subnormal_cutoff(cutoff, tmp_path):
    # the figure's x span is the cutoff: its tick step once underflowed
    spath = tmp_path / "tiny.svg"
    assert main(["polya", "--cutoff", cutoff, "--n", "16", "--svg", str(spath)]) == 0
    assert len(_polylines(spath.read_text())) == 2


def test_polya_scale_manufactures_violation(tmp_path, monkeypatch):
    # a bound scaled down 1000-fold is violated: polya exits 1
    polya_rhs = hyperlap.counting.polya_rhs
    monkeypatch.setitem(
        hyperlap.counting._COUNT_RHS, "polya", lambda *args: 1e-3 * polya_rhs(*args)
    )
    jpath = tmp_path / "bad.json"
    rc = main(["polya", *FAST_SWEEP, "--grid", "200", "--json", str(jpath)])
    assert rc == 1
    assert json.loads(jpath.read_text())["violated"] is True


def test_polya_human_summary(capsys):
    rc = main(["polya", *FAST_SWEEP, "--grid", "200"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "holds" in out and "min margin" in out


def test_artifacts_are_reproducible(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        assert main(["polya", *FAST_SWEEP, "--grid", "200", "--csv", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()
    sa = tmp_path / "a.svg"
    sb = tmp_path / "b.svg"
    for path in (sa, sb):
        assert main(["ratio", "--svg", str(path)]) == 0
    assert sa.read_bytes() == sb.read_bytes()
    # every Lanczos start is a function of the sweep's arguments (the fixed
    # vector, then the previous mode's Ritz vectors): fresh processes agree bytewise
    runs = [_run_cli("sweep", "--cutoff", "50", "--csv", "-") for _ in range(2)]
    assert all(run.returncode == 0 for run in runs)
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.startswith(b"ell,k,nu\n")


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cutoff": 30, "n": 64}))
    out = tmp_path / "out.json"
    rc = main(["sweep", "--config", str(cfg), "--json", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["cutoff"] == 30.0


def test_config_supplies_required_flags(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"gamma": 1, "dim": 2}))
    assert main(["constants", "--config", str(cfg), "--json", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["classical"] == lt_classical(1.0, 2)
    cfg.write_text(json.dumps({"cutoff": 50, "n": 64}))
    assert main(["eig", "--config", str(cfg)]) == 0
    assert "4 eigenvalues <= cutoff" in capsys.readouterr().out
    # a flag missing from both the command line and the config is named
    cfg.write_text(json.dumps({"gamma": 1}))
    assert main(["constants", "--config", str(cfg)]) == 2
    assert "required: --dim" in capsys.readouterr().err


def test_config_flag_wins_over_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cutoff": 25, "n": 64}))
    out = tmp_path / "out.json"
    rc = main(["sweep", "--cutoff", "30", "--config", str(cfg), "--json", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["cutoff"] == 30.0


@pytest.mark.parametrize("flag", [["--dim", "2"], ["--dim=2"], ["--di", "2"], ["--di=2"]])
def test_config_any_form_of_a_flag_wins(tmp_path, flag, capsys):
    """argparse decides what a flag is, abbreviations included: each of these
    sets d = 2 over the config's d = 3."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gamma": 1, "dim": 3}))
    assert main(["constants", *flag, "--gamma", "1", "--config", str(cfg)]) == 0
    assert "d=2:" in capsys.readouterr().out
    assert main(["constants", "--config", str(cfg)]) == 0
    assert "d=3:" in capsys.readouterr().out


def test_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"frobnicate": 1}))
    assert main(["sweep", *FAST_SWEEP, "--config", str(cfg)]) == 2


@pytest.mark.parametrize(
    "config", [{"tol": "1e-10"}, {"n": "64"}, {"n": 64.5}, {"n": True}]
)
def test_config_rejects_mistyped_value(tmp_path, config, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["sweep", "--cutoff", "30", "--config", str(cfg)]) == 2
    assert "must be of type" in capsys.readouterr().err


def test_config_int_stands_for_float(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cutoff": 30, "tol": 1, "n": 64}))
    out = tmp_path / "out.json"
    assert main(["sweep", "--config", str(cfg), "--json", str(out)]) == 0
    summary = json.loads(out.read_text())
    assert summary["tolerance"] == 1.0 and isinstance(summary["tolerance"], float)


def test_config_rejects_non_object(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    assert main(["sweep", *FAST_SWEEP, "--config", str(cfg)]) == 2


def test_config_rejects_bad_json(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{nope")
    assert main(["sweep", *FAST_SWEEP, "--config", str(cfg)]) == 2


def test_config_missing_file_exits_two(tmp_path):
    assert main(["sweep", *FAST_SWEEP, "--config", str(tmp_path / "nope.json")]) == 2


def test_ltcheck_holds(capsys):
    rc = main(["ltcheck", "--gamma", "1", "--cutoff", "20", "--n", "64"])
    assert rc == 0
    assert "holds" in capsys.readouterr().out


def test_ltcheck_json(tmp_path):
    out = tmp_path / "lt.json"
    rc = main(
        ["ltcheck", "--gamma", "0.5", "--cutoff", "20", "--n", "64", "--json", str(out)]
    )
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["passed"] is True
    assert 0.0 <= data["ratio"] <= 1.0
    assert sorted(data) == ["gamma", "lambda", "lhs", "passed", "ratio", "rhs"]


def test_ltcheck_invalid_gamma_exits_two():
    assert main(["ltcheck", "--gamma", "0.3", "--cutoff", "20", "--n", "64"]) == 2


def test_sobolev_single_profile(capsys):
    rc = main(["sobolev", "--profile", "sine"])
    assert rc == 0
    assert "holds" in capsys.readouterr().out


def test_sobolev_json_all_profiles(tmp_path):
    out = tmp_path / "sob.json"
    rc = main(["sobolev", "--json", str(out)])
    assert rc == 0
    reports = json.loads(out.read_text())
    assert len(reports) == 5
    assert all(r["passed"] for r in reports)


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
def test_sobolev_tol_must_be_finite_and_positive(tol, capsys):
    # inf would accept the first 32-node margin, and nan, 0 and -1 would
    # double the nodes to _MAX_NODES before failing as unsettled
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        sobolev_check(trial_profile("bump"), tol=float(tol))
    assert main(["sobolev", "--profile", "bump", "--tol", tol]) == 2
    assert "tol must be positive and finite" in capsys.readouterr().err


# each subcommand: its arguments, its artifact flags in output order, and its summary
OUTPUT_CASES = {
    "constants": (
        ["--gamma", "1", "--dim", "2"], ["json"], r"gamma=1\.0 d=2: classical \S+, theorem \S+\n"
    ),
    "ratio": (
        ["--dmax", "6"], ["csv", "svg", "json"], r"ratio over d in \[2,6\]: min \S+ at d=\d+\n"
    ),
    "eig": (
        ["--ell", "1", "--cutoff", "30", "--n", "64"],
        ["csv", "json"],
        r"ell=1: \d+ eigenvalues <= cutoff; first \[.+\]\n",
    ),
    "sweep": (
        FAST_SWEEP,
        ["csv", "json"],
        r"swept \d+ modes \(ell_max \d+\), \d+ certified eigenvalues <= \S+\n",
    ),
    "polya": (
        FAST_SWEEP,
        ["csv", "svg", "json"],
        r"semiclassical bound holds up to 30: min margin \S+ at lambda \S+\n",
    ),
    "ltcheck": (
        ["--gamma", "1", "--cutoff", "30", "--n", "64"],
        ["json"],
        r"trace inequality holds at gamma=1\.0 height=30: ratio \S+\n",
    ),
    "sobolev": (
        [],
        ["json"],
        r"(\w+: dual inequality holds, margin \S+ \(\d+ nodes\)\n){%d}" % len(TRIAL_NAMES),
    ),
}


@pytest.mark.parametrize("command", list(OUTPUT_CASES))
def test_output_rule(command, tmp_path, capsys):
    """Every subcommand prints its summary (one line, one per profile for
    sobolev) only when no artifact is asked for, writes nothing to stdout
    when its artifacts go to files, and writes the artifacts it sends to
    '-' in the order csv, svg, json."""
    args, artifacts, summary = OUTPUT_CASES[command]
    argv = [command, *args]
    assert main(argv) == 0
    assert re.fullmatch(summary, capsys.readouterr().out)
    paths = {kind: tmp_path / f"out.{kind}" for kind in artifacts}
    assert main([*argv, *(x for kind in artifacts for x in (f"--{kind}", str(paths[kind])))]) == 0
    assert capsys.readouterr().out == ""
    files = "".join(paths[kind].read_bytes().decode() for kind in artifacts)
    assert main([*argv, *(x for kind in artifacts for x in (f"--{kind}", "-"))]) == 0
    assert capsys.readouterr().out == files


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit):
        main([])


def test_installed_entry_point():
    proc = _run_cli("constants", "--gamma", "1", "--dim", "2", "--json", "-")
    assert proc.returncode == 0
    assert sorted(json.loads(proc.stdout)) == ["classical", "theorem"]
