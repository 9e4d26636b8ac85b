"""End-to-end tests of the command line interface."""

import json
import math
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from hyperlap import lt_best_known, lt_classical
from hyperlap.cli import main

FAST_SWEEP = ["--cutoff", "30", "--n", "64", "--alpha", "-1", "--beta", "1"]


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


def test_eig_json_and_matrix_dump(tmp_path):
    jpath = tmp_path / "eig.json"
    mpath = tmp_path / "matrix.csv"
    rc = main(
        [
            "eig", "--ell", "1", "--cutoff", "40", "--n", "16",
            "--json", str(jpath), "--dump-matrix", str(mpath),
        ]
    )
    assert rc == 0
    data = json.loads(jpath.read_text())
    assert data["ell"] == 1
    assert data["count"] == len(data["nu"])
    assert all(b > a for a, b in zip(data["nu"], data["nu"][1:]))
    rows = [ln.split(",") for ln in mpath.read_text().strip().split("\n")]
    assert len(rows) == 15
    assert all(len(r) == 15 for r in rows)
    mat = np.array([[float(v) for v in r] for r in rows])
    assert np.all(np.isfinite(mat))


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


def test_sweep_ell_max_flag(tmp_path):
    auto = tmp_path / "auto.csv"
    fixed = tmp_path / "fixed.csv"
    assert main(["sweep", *FAST_SWEEP, "--ell-max", "auto", "--csv", str(auto)]) == 0
    summary = tmp_path / "s.json"
    assert main(["sweep", *FAST_SWEEP, "--json", str(summary)]) == 0
    lm = json.loads(summary.read_text())["ell_max"]
    assert (
        main(["sweep", *FAST_SWEEP, "--ell-max", str(lm), "--csv", str(fixed)]) == 0
    )
    assert auto.read_text() == fixed.read_text()


def test_sweep_bad_ell_max_exits_two():
    assert main(["sweep", *FAST_SWEEP, "--ell-max", "wibble"]) == 2


def test_sweep_too_small_ell_max_exits_two():
    # ground state of mode 1 sits below the cutoff, so the table is incomplete
    assert main(["sweep", *FAST_SWEEP, "--ell-max", "1"]) == 2


def test_sweep_unresolvable_exits_three():
    assert main(["sweep", "--cutoff", "200", "--n", "8"]) == 3


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


def test_polya_scale_manufactures_violation(tmp_path):
    jpath = tmp_path / "bad.json"
    rc = main(
        [
            "polya", *FAST_SWEEP, "--grid", "200",
            "--constant-scale", "0.001", "--json", str(jpath),
        ]
    )
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


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cutoff": 30, "n": 64}))
    out = tmp_path / "out.json"
    rc = main(["sweep", "--config", str(cfg), "--json", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["cutoff"] == 30.0


def test_config_flag_wins_over_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cutoff": 25, "n": 64}))
    out = tmp_path / "out.json"
    rc = main(["sweep", "--cutoff", "30", "--config", str(cfg), "--json", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["cutoff"] == 30.0


def test_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"frobnicate": 1}))
    assert main(["sweep", *FAST_SWEEP, "--config", str(cfg)]) == 2


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


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit):
        main([])


def test_installed_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hyperlap.cli", "constants", "--gamma", "1",
         "--dim", "2", "--json", "-"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert sorted(json.loads(proc.stdout)) == ["classical", "theorem"]
