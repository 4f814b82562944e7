import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from sclab import cli
from sclab import experiments as ex

CONFIG_DIR = Path(__file__).resolve().parents[1] / "scripts" / "configs"


# ---------------------------------------------------------------------------
# Slope fitting
# ---------------------------------------------------------------------------

def test_fit_slope_exact_power_law():
    xs = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    slope, stderr = ex.fit_slope(zip(xs, xs**2))
    assert slope == pytest.approx(2.0, abs=1e-12)
    assert stderr < 1e-10


def test_fit_slope_with_noise():
    rng = np.random.default_rng(42)
    xs = np.geomspace(1.0, 100.0, 12)
    ys = 5.0 * xs ** (2.0 / 3.0) * (1.0 + 0.01 * rng.standard_normal(12))
    slope, stderr = ex.fit_slope(zip(xs, ys))
    assert slope == pytest.approx(2.0 / 3.0, abs=0.02)
    assert stderr < 0.02


def test_fit_slope_rejections():
    with pytest.raises(ValueError):
        ex.fit_slope([(1.0, 1.0)])
    with pytest.raises(ValueError):
        ex.fit_slope([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])
    with pytest.raises(ValueError):
        ex.fit_slope([(1.0, 1.0), (2.0, 2.0), (2.0, 3.0), (4.0, 4.0)])
    with pytest.raises(ValueError):
        ex.fit_slope([(1.0, 1.0), (2.0, -2.0), (3.0, 3.0), (4.0, 4.0)])


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

GOOD_CONFIG = """
# sample sweep
experiment = weyl
lambda_range = 10, 200
seed = 7
zeta = 0.5
p_list = 2, 6, inf
"""


def test_parse_config_roundtrip():
    cfg = ex.parse_config(GOOD_CONFIG)
    assert cfg.experiment == "weyl"
    assert cfg.lambda_range == [10, 200]
    assert cfg.seed == 7
    assert cfg.p_list == [2, 6, math.inf]


def test_parse_config_unknown_key_has_line_number():
    with pytest.raises(ex.ConfigError, match="line 3.*frobnicate"):
        ex.parse_config("experiment = weyl\n\nfrobnicate = 1\n")


def test_parse_config_bad_values():
    with pytest.raises(ex.ConfigError, match="zeta"):
        ex.parse_config("experiment = weyl\nzeta = nope\n")
    with pytest.raises(ex.ConfigError, match="zeta"):
        ex.parse_config("experiment = weyl\nzeta = 1.5\n")
    with pytest.raises(ex.ConfigError, match="experiment"):
        ex.parse_config("experiment = astrology\n")
    with pytest.raises(ex.ConfigError, match="missing"):
        ex.parse_config("seed = 1\n")
    with pytest.raises(ex.ConfigError, match="line 2"):
        ex.parse_config("experiment = weyl\njust some words\n")
    # non-finite tokens parse as floats; the runner names the field
    cfg = ex.parse_config("experiment = weyl\nlambda_range = 10, Infinity\n")
    assert cfg.lambda_range == [10, math.inf]
    with pytest.raises(ex.ConfigError, match="field 'lambda_range'"):
        ex.run(cfg)
    cfg = ex.parse_config("experiment = cluster_upper\nlambda_range = -inf, 5, 10\n")
    assert cfg.lambda_range == [-math.inf, 5, 10]
    with pytest.raises(ex.ConfigError, match="field 'lambda_range'"):
        ex.run(cfg)
    assert ex.parse_config("experiment = weyl\np_list = 4, +inf\n").p_list == [4, math.inf]
    with pytest.raises(ex.ConfigError, match="line 2: field 'p_list'"):
        ex.parse_config("experiment = weyl\np_list = 4, nan\n")
    # a repeated key names both of its lines
    with pytest.raises(ex.ConfigError, match="line 3: key 'experiment' repeats line 1"):
        ex.parse_config("experiment = cluster_upper\nlambda_range = 5, 10\n"
                        "experiment = weyl\n")


def test_empty_range_rejected():
    with pytest.raises(ex.ConfigError, match="ell_range"):
        ex.ExperimentConfig(experiment="weyl", ell_range=[]).validate()


# ---------------------------------------------------------------------------
# Runner dispatch, reproducibility, file output
# ---------------------------------------------------------------------------

def test_run_writes_reproducible_outputs(tmp_path):
    blobs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        cfg = ex.ExperimentConfig(experiment="weyl", lambda_range=[10, 100],
                                  seed=3, output=str(out))
        report = ex.run(cfg)
        assert report.passed
        csv_bytes = (out / "weyl.csv").read_bytes()
        json_bytes = (out / "weyl.json").read_bytes()
        blobs.append((csv_bytes, json_bytes))
    assert blobs[0] == blobs[1]
    assert blobs[0][0].startswith(b"lambda,count,count_over_lambda_sq\r\n")


def test_sogge_single_slope():
    cfg = ex.ExperimentConfig(experiment="sogge_single",
                              ell_range=[32, 48, 64, 96, 128])
    checks, rows, header = ex.run_sogge_single(cfg)
    slope = checks[0]
    assert slope.passed and slope.tol == 0.03
    assert header == ("ell", "l6_norm")
    assert len(rows) == 5


def test_cluster_lower_sup_norm_slope_tight():
    cfg = ex.ExperimentConfig(experiment="cluster_lower",
                              ell_range=[100, 141, 200, 283, 400])
    checks, _, _ = ex.run_cluster_lower(cfg)
    sup_slope = next(c for c in checks if c.name == "lower-slope-caseinf-pinf")
    assert abs(sup_slope.measured - 1.0) <= 0.05


def test_cluster_upper_default_sweep_bounded():
    cfg = ex.ExperimentConfig(experiment="cluster_upper", seed=1)
    checks, rows, _ = ex.run_cluster_upper(cfg)
    assert all(c.passed for c in checks)
    assert {row[0] for row in rows} == {5.0, 10.0, 20.0, 35.0, 50.0}


def test_cluster_upper_is_seed_deterministic():
    cfg1 = ex.ExperimentConfig(experiment="cluster_upper",
                               lambda_range=[5, 8], seed=9)
    cfg2 = ex.ExperimentConfig(experiment="cluster_upper",
                               lambda_range=[5, 8], seed=9)
    _, rows1, _ = ex.run_cluster_upper(cfg1)
    _, rows2, _ = ex.run_cluster_upper(cfg2)
    assert rows1 == rows2


def test_spectra_dumped_per_lambda(tmp_path):
    out = tmp_path / "sd"
    cfg = ex.ExperimentConfig(experiment="schatten_dual",
                              lambda_range=[5, 10], p_list=[6],
                              output=str(out))
    ex.run(cfg)
    for lam in (5, 10):
        path = out / "spectra" / f"schatten_dual_lambda{lam}.csv"
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,sigma"
        assert float(lines[1].split(",")[1]) > 0.0


@pytest.mark.parametrize("experiment, lams", [
    ("oscillatory_scaling", [123.4561, 123.4562]),
    ("schatten_dual", [30.0000001, 30.0000002, 40]),
])
def test_spectra_file_names_must_differ(tmp_path, experiment, lams):
    # both values print as one {lam:g} name: one spectrum would overwrite the other
    cfg = ex.ExperimentConfig(experiment=experiment, lambda_range=lams,
                              output=str(tmp_path))
    with pytest.raises(ex.ConfigError, match="field 'lambda_range'"):
        ex.run(cfg)
    assert not (tmp_path / "spectra").exists()


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.cfg")), ids=lambda p: p.stem)
def test_shipped_configs_pass(path, tmp_path):
    cfg = dataclasses.replace(ex.load_config(path), output=str(tmp_path))
    report = ex.run(cfg)
    assert report.checks
    assert [c.name for c in report.checks if not c.passed] == []
    assert (tmp_path / f"{cfg.experiment}.json").exists()


def test_json_report_schema(tmp_path):
    out = tmp_path / "rep"
    cfg = ex.ExperimentConfig(experiment="weyl", output=str(out))
    ex.run(cfg)
    data = json.loads((out / "weyl.json").read_text())
    assert data["schema_version"] == ex.SCHEMA_VERSION
    assert data["experiment"] == "weyl"
    for entry in data["checks"]:
        assert set(entry) == {"check", "predicted", "measured", "tol", "pass"}


def test_format_rows_rfc4180_quoting():
    text = ex.format_rows(("a", "b"), [("x,y", 1.5)])
    assert text == 'a,b\r\n"x,y",1.5\r\n'


def test_unknown_experiment_rejected():
    with pytest.raises(ex.ConfigError):
        ex.ExperimentConfig(experiment="nope").validate()


@pytest.mark.parametrize("experiment, overrides, field_name", [
    ("kss_compare", {"p_list": [4.0, 6.0]}, "p_list"),  # was: only p_list[0] ran
    ("kss_compare", {"p_list": [2.0]}, "p_list"),
    ("kss_compare", {"p_list": [math.inf]}, "p_list"),
    ("kss_compare", {"lambda_range": [6, 9, 14]}, "lambda_range"),
    ("kss_compare", {"lambda_range": [6, 14, 9, 20]}, "lambda_range"),
    ("kss_compare", {"lambda_range": [6, 9, 10.4885, 20]}, "lambda_range"),
    ("schatten_dual", {"lambda_range": [10.4885, 20, 30]}, "lambda_range"),
    ("cluster_upper", {"lambda_range": [0.5, 20]}, "lambda_range"),
    ("weyl", {"lambda_range": [10, 100, 300]}, "lambda_range"),  # was: 300 dropped
    ("weyl", {"lambda_range": [100, 10]}, "lambda_range"),
    ("sogge_single", {"ell_range": [32, 64, 128]}, "ell_range"),
    ("cluster_lower", {"ell_range": [100, 200, 400]}, "ell_range"),
    ("oscillatory_scaling", {"lambda_range": [0, 8]}, "lambda_range"),
    ("oscillatory_scaling", {"lambda_range": [-3, 8]}, "lambda_range"),
    ("oscillatory_scaling", {"lambda_range": [math.inf, 8]}, "lambda_range"),
    ("cluster_lower", {"p_list": [1]}, "p_list"),
    ("cluster_upper", {"p_list": [1]}, "p_list"),
    ("schatten_dual", {"p_list": [1]}, "p_list"),
    ("cluster_lower", {"ell_range": [1, 2, 3, 4]}, "ell_range"),
    ("cluster_lower", {"zeta": 0.9, "ell_range": [100, 141, 200, 283]}, "ell_range"),
    ("phase_sums", {"ell_range": [3]}, "ell_range"),
    ("heuristic_compare", {"ell_range": [3]}, "ell_range"),
    ("wkb_accuracy", {"ell_range": [4]}, "ell_range"),
    ("wkb_accuracy", {"ell_range": [-5, 100]}, "ell_range"),
    ("wkb_accuracy", {"eta2": 5.0}, "eta2"),
    ("wkb_accuracy", {"eta2": 1.5}, "eta2"),
    ("wkb_accuracy", {"eta1": 1.0}, "eta1"),
    ("phase_sums", {"eta2": 1.5}, "eta2"),
    ("phase_sums", {"eta1": 1.0}, "eta1"),
    ("heuristic_compare", {"eta1": 100}, "ell_range"),
    ("heuristic_compare", {"ell_range": [8]}, "ell_range"),
    ("cluster_lower", {"eta1": 100}, "ell_range"),
    ("cluster_lower", {"ell_range": [8, 16, 32, 64]}, "ell_range"),
    ("cluster_upper", {"seed": -1}, "seed"),
    ("weyl", {"lambda_range": [10, math.inf]}, "lambda_range"),
    ("schatten_dual", {"lambda_range": [5, 10, math.inf]}, "lambda_range"),
    ("cluster_upper", {"lambda_range": [5, 10, math.inf]}, "lambda_range"),
    ("kss_compare", {"lambda_range": [6, 9, 14, math.inf]}, "lambda_range"),
    ("schatten_dual", {"lambda_range": [5, math.nan, 10]}, "lambda_range"),
    ("kss_compare", {"lambda_range": [6, 9, math.nan, 20]}, "lambda_range"),
    # windows whose Q reaches 0 on their interval (eta1 near 2, wide r)
    *[(name, {"ell_range": ells, "eta1": 2.05, "eta2": eta2, "zeta": 0.7},
       "ell_range")
      for name in ("phase_sums", "wkb_accuracy")
      for ells in ([30, 40, 60, 90], [16, 24, 32, 48])
      for eta2 in (0.5, 1.0, 1.41)],
])
def test_runner_rejects_unusable_ranges(experiment, overrides, field_name):
    cfg = ex.ExperimentConfig(experiment=experiment, **overrides)
    with pytest.raises(ex.ConfigError, match=f"field '{field_name}'"):
        ex.run(cfg)


@pytest.mark.parametrize("p_list", [[2, math.inf], [3.0, 8.0]])
def test_cluster_lower_refuses_caseinf_exponents_below_six(p_list):
    # one p_list serves both windows; the case-inf slope prediction is the
    # saturating branch (p >= 6), which reads 0 at p = 2 against a measured 0.5
    cfg = ex.ExperimentConfig(experiment="cluster_lower", p_list=p_list,
                              ell_range=[100, 141, 200, 283])
    with pytest.raises(ex.ConfigError, match=r"field 'p_list'.*p >= 6"):
        ex.run(cfg)


def test_window_error_gives_zeta_and_radius():
    cfg = ex.ExperimentConfig(experiment="cluster_lower", zeta=0.9,
                              ell_range=[100, 141, 200, 283])
    with pytest.raises(ex.ConfigError, match=r"r = ceil\(l\^zeta\) = 64 at zeta = 0.9"):
        ex.run(cfg)


def test_experiment_names_match_runners():
    assert set(ex.EXPERIMENT_NAMES) == set(ex.RUNNERS)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_run_weyl(tmp_path, capsys):
    cfg_path = tmp_path / "weyl.cfg"
    out = tmp_path / "out"
    cfg_path.write_text(
        f"experiment = weyl\nlambda_range = 10, 100\noutput = {out}\n")
    code = cli.main(["run", str(cfg_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "[PASS] weyl :: weyl-count-slope" in captured.out
    assert (out / "weyl.csv").exists()


def test_cli_run_bad_config(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("experiment = weyl\nmystery = 1\n")
    code = cli.main(["run", str(cfg_path)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_cli_run_reports_runner_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "weyl.cfg"
    cfg_path.write_text("experiment = weyl\nlambda_range = 10, 100, 300\n")
    code = cli.main(["run", str(cfg_path)])
    assert code == 2
    assert "config error: field 'lambda_range'" in capsys.readouterr().err


@pytest.mark.parametrize("text, field_name", [
    # eta2 sqrt(r/l) is narrower than the 4l grid's spacing at the equator
    ("experiment = cluster_lower\nell_range = 100, 200, 400, 800\neta2 = 0.0001\n", "eta2"),
    # lambda^2 underflows, so weyl_count read 0 and count / lambda^2 divided by it
    ("experiment = weyl\nlambda_range = 1e-200, 1e-100\n", "lambda_range"),
])
def test_cli_run_refuses_a_config_that_ended_in_a_traceback(tmp_path, capsys, text, field_name):
    cfg_path = tmp_path / "user.cfg"
    cfg_path.write_text(text)
    assert cli.main(["run", str(cfg_path)]) == 2
    assert f"config error: field '{field_name}'" in capsys.readouterr().err


def test_cli_run_prints_elapsed_time(tmp_path, capsys, monkeypatch):
    clock = iter([100.0, 102.5])
    monkeypatch.setattr(cli, "perf_counter", lambda: next(clock))
    cfg_path = tmp_path / "weyl.cfg"
    cfg_path.write_text("experiment = weyl\n")
    assert cli.main(["run", str(cfg_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(line.endswith("(2.50s)") for line in lines)


def test_cli_run_missing_config(tmp_path, capsys):
    code = cli.main(["run", str(tmp_path / "nope.cfg")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_cli_dump_wkb(tmp_path):
    out = tmp_path / "profile.csv"
    code = cli.main(["dump-wkb", "--ell", "40", "--m", "38", "--case", "2",
                     "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "theta,Q,S,y,v_exact,envelope"
    assert len(lines) == 202
    row = [float(tok) for tok in lines[101].split(",")]
    assert row[0] == pytest.approx(0.0)  # center of the symmetric grid
    assert row[1] < 0.0  # oscillatory regime


@pytest.mark.parametrize("argv", [
    ["--ell", "10", "--m", "20", "--case", "2"],  # turning point
    ["--ell", "10", "--m", "9", "--case", "inf"],  # empty interval
    ["--ell", "40", "--m", "38", "--case", "2", "--eta2", "5"],  # |theta| >= pi/2
    ["--ell", "40", "--m", "38", "--case", "2", "--n-theta", "1"],
    ["--ell", "0", "--m", "0", "--case", "2"],
    ["--ell", "-4", "--m", "0", "--case", "2"],
    ["--ell", "100", "--m", "90", "--case", "2", "--eta2", "nan"],
    ["--ell", "100", "--m", "90", "--case", "2", "--r", "0"],
    ["--ell", "100", "--m", "90", "--case", "2", "--eta2", "-1"],
])
def test_cli_dump_wkb_reports_unusable_arguments(argv, capsys):
    code = cli.main(["dump-wkb", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("dump-wkb error: ")
    assert len(captured.err.splitlines()) == 1
    if argv[-2:] in (["--eta2", "5"], ["--eta2", "nan"], ["--eta2", "-1"]):  # case 2 reads eta2
        assert "eta2" in captured.err and "eta1" not in captured.err


def test_cli_check_writes_acceptance_json(tmp_path, capsys):
    out = tmp_path / "acceptance.json"
    code = cli.main(["check", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    data = json.loads(out.read_text())
    names = {entry["check"] for entry in data["checks"]}
    for idx in range(1, 14):
        assert any(name.startswith(f"c{idx:02d}-") for name in names)
    assert f"{sum(1 for c in data['checks'] if c['pass'])}/" in captured.out
