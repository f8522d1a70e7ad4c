"""End-to-end command-line behavior: files, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import cavity_rpm
from cavity_rpm import validation
from cavity_rpm.cli import DEFAULTS, main
from cavity_rpm.validation import CheckResult


def invoke(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


def test_spectrum_lines_frozen_and_deterministic(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        result = invoke("spectrum", "--model", "harmonic", "--N", 2,
                        "--J", 1, "--omega0", 0, "--out", out)
        assert result.exit_code == 0, result.output
    csv_a = (out_a / "spectrum_harmonic.csv").read_bytes()
    assert csv_a == (out_b / "spectrum_harmonic.csv").read_bytes()
    lines = csv_a.decode().splitlines()
    assert lines[0] == "energy,weight00,weightN0"
    assert lines[1] == "-2,0.25,0.25"
    assert lines[2] == "0,0.5,-0.5"
    assert lines[3] == "2,0.25,0.25"
    sidecar = json.loads((out_a / "spectrum_harmonic.json").read_text())
    assert sidecar["command"] == "spectrum"
    assert sidecar["config"]["model"] == "harmonic"
    assert "version" in sidecar
    assert sidecar["diagnostics"] == {
        "harmonic": {"lines": 3, "zero_weight_lines": 0, "weight_sum_defect": 0.0}}


def test_spectrum_compare_reports_tiny_deviation(tmp_path):
    result = invoke("spectrum", "--compare", "--N", 8, "--g", 1.2, "--J", 0.8,
                    "--epsilon", 0.01, "--out", tmp_path)
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "spectrum_compare.json").read_text())
    assert report["compare"]["linf_rho00"] < 1e-9
    assert report["compare"]["linf_rhoN0"] < 1e-9
    header = (tmp_path / "spectrum_compare.csv").read_text().splitlines()[0]
    assert header == "energy,rho00_rpm,rhoN0_rpm,rho00_oracle,rhoN0_oracle"
    assert report["diagnostics"] == {
        "anharmonic-rpm": {"points": 2000, "zero_cross_points": 0}}


def test_rpm_density_counts_underflowed_cross_points(tmp_path):
    """At N=3000 the recursion's b underflows to 0 across the spectrum's
    tails; the sidecar counts the written rhoN0 zeros."""
    config = tmp_path / "points.json"
    config.write_text(json.dumps({"points": 401}))
    result = invoke("spectrum", "--config", config, "--model", "anharmonic-rpm",
                    "--N", 3000, "--g", 1.2, "--J", 0.8, "--epsilon", 0.01,
                    "--out", tmp_path)
    assert result.exit_code == 0, result.output
    rows = (tmp_path / "spectrum_anharmonic-rpm.csv").read_text().splitlines()[1:]
    zeros = sum(float(row.split(",")[2]) == 0 for row in rows)
    sidecar = json.loads((tmp_path / "spectrum_anharmonic-rpm.json").read_text())
    assert zeros > 0
    assert sidecar["diagnostics"] == {
        "anharmonic-rpm": {"points": 401, "zero_cross_points": zeros}}


def test_spectrum_rpm_requires_epsilon(tmp_path):
    result = invoke("spectrum", "--model", "anharmonic-rpm", "--N", 4, "--out", tmp_path)
    assert result.exit_code == 2
    assert "epsilon" in result.output


def test_dynamics_with_first_transfer(tmp_path):
    result = invoke("dynamics", "--model", "anharmonic-oracle", "--N", 6,
                    "--g", 1.2, "--J", 0.8, "--tmax", 10, "--dt", 0.01,
                    "--compare", "--first-transfer", "--out", tmp_path)
    assert result.exit_code == 0, result.output
    header = (tmp_path / "dynamics_anharmonic-oracle.csv").read_text().splitlines()[0]
    assert header.startswith("t,return_re,return_im,return_abs,transition_re")
    assert "harmonic_return_re" in header
    transfer = json.loads((tmp_path / "first_transfer.json").read_text())
    assert set(transfer["times"]) == {"anharmonic-oracle", "harmonic"}
    assert 0.0 < transfer["times"]["harmonic"] < 10.0
    diagnostics = json.loads((tmp_path / "dynamics_anharmonic-oracle.json").read_text())[
        "diagnostics"]
    assert set(diagnostics) == {"anharmonic-oracle", "harmonic"}
    assert diagnostics["anharmonic-oracle"]["lines"] == 7
    assert abs(diagnostics["anharmonic-oracle"]["weight_sum_defect"]) < 1e-12


def test_harmonic_spectrum_beyond_n_1023(tmp_path):
    result = invoke("spectrum", "--model", "harmonic", "--N", 2000, "--J", 0.8,
                    "--out", tmp_path)
    assert result.exit_code == 0, result.output
    rows = (tmp_path / "spectrum_harmonic.csv").read_text().splitlines()
    assert len(rows) == 2002
    assert sum(float(r.split(",")[1]) for r in rows[1:]) == pytest.approx(1.0, abs=1e-12)
    # binomial weights below 4.9e-324 round to 0; the sidecar counts them
    sidecar = json.loads((tmp_path / "spectrum_harmonic.json").read_text())
    assert sidecar["diagnostics"]["harmonic"]["zero_weight_lines"] == 396


def run_python(*args):
    """A fresh interpreter with this package on its path."""
    src = str(Path(cavity_rpm.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)


def test_cli_import_leaves_scipy_linalg_unloaded():
    probe = run_python("-c", "import sys, cavity_rpm.cli; print('scipy.linalg' in sys.modules)")
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "False"


def test_dynamics_empty_window_writes_header_only(tmp_path):
    result = invoke("dynamics", "--model", "harmonic", "--N", 2, "--J", 0.8,
                    "--tmax", 0, "--out", tmp_path)
    assert result.exit_code == 0, result.output
    content = (tmp_path / "dynamics_harmonic.csv").read_text().splitlines()
    assert len(content) == 1
    assert content[0].startswith("t,return_re")


def test_dynamics_rejects_density_only_model(tmp_path):
    result = invoke("dynamics", "--model", "anharmonic-rpm", "--N", 4, "--out", tmp_path)
    assert result.exit_code == 2
    assert "line-resolved" in result.output


def test_noon_summary_and_histogram(tmp_path):
    result = invoke("noon", "--model", "anharmonic-oracle", "--N", 4, "--g", 1.2,
                    "--J", 0.8, "--bins", 2, "--tmax", 100, "--out", tmp_path)
    assert result.exit_code == 0, result.output
    rows = (tmp_path / "noon_anharmonic-oracle.csv").read_text().splitlines()
    assert rows[0] == "c0_center,cN_center,mass"
    assert len(rows) == 5
    masses = [float(r.split(",")[2]) for r in rows[1:]]
    assert abs(sum(masses) - 1.0) < 1e-12
    sidecar = json.loads((tmp_path / "noon_anharmonic-oracle.json").read_text())
    summary = sidecar["summary"]
    assert set(summary) >= {"max_score", "argmax_time", "fraction_above",
                            "threshold", "n_samples", "t_max", "dt"}
    assert 0.0 <= summary["max_score"] <= 1.0 + 1e-9
    assert sidecar["metadata"]["axes"] == "moduli"
    assert sidecar["diagnostics"]["anharmonic-oracle"]["lines"] == 5


def test_noon_sweep_writes_one_file_per_n(tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"sweep_n": [2, 4], "tmax": 50.0, "bins": 5}))
    result = invoke("noon", "--model", "harmonic", "--J", 0.8, "--config", config,
                    "--out", tmp_path)
    assert result.exit_code == 0, result.output
    assert (tmp_path / "noon_harmonic_N2.csv").exists()
    assert (tmp_path / "noon_harmonic_N4.csv").exists()
    echo = json.loads((tmp_path / "noon_harmonic_N2.json").read_text())
    assert echo["config"]["N"] == 2


def test_flags_override_config_file(tmp_path):
    config = tmp_path / "base.json"
    config.write_text(json.dumps({"model": "harmonic", "N": 2, "J": 0.5, "omega0": 0.0}))
    result = invoke("spectrum", "--config", config, "--J", 1.0, "--out", tmp_path)
    assert result.exit_code == 0, result.output
    sidecar = json.loads((tmp_path / "spectrum_harmonic.json").read_text())
    assert sidecar["config"]["J"] == 1.0
    assert sidecar["config"]["N"] == 2


def test_every_common_flag_reaches_its_config_key(tmp_path):
    flags = {"N": 4, "g": 0.3, "J": 0.5, "omega0": 2.0, "sigma": -1,
             "epsilon": 0.05, "tmax": 7.0, "dt": 0.02, "bins": 12}
    args = [arg for key, value in flags.items() for arg in (f"--{key}", value)]
    result = invoke("spectrum", "--model", "harmonic", *args, "--out", tmp_path)
    assert result.exit_code == 0, result.output
    config = json.loads((tmp_path / "spectrum_harmonic.json").read_text())["config"]
    assert set(config) == set(DEFAULTS)
    assert config["model"] == "harmonic"
    assert {key: config[key] for key in flags} == flags


@pytest.mark.parametrize("args, config, code", [
    (("spectrum", "--model", "harmonic", "--N", 10, "--J", "nan"), None, 2),
    (("spectrum", "--model", "anharmonic-rpm", "--N", 10, "--J", "inf",
      "--epsilon", 0.01), None, 2),
    (("spectrum", "--model", "anharmonic-rpm", "--N", 10, "--epsilon", "inf"), None, 2),
    (("spectrum", "--model", "anharmonic-rpm", "--N", 10, "--epsilon", 1e308), None, 2),
    (("spectrum", "--model", "anharmonic-rpm", "--N", 10, "--epsilon", 0.01),
     '{"grid": [0, 1e999], "points": 5}', 2),
    (("dynamics", "--model", "harmonic", "--N", 10, "--tmax", "inf"), None, 2),
    (("noon", "--model", "harmonic", "--N", 4, "--tmax", "inf"), None, 2),
    (("spectrum", "--model", "anharmonic-oracle", "--N", 10, "--epsilon", 1e308), None, 2),
    # finite bounds, but epsilon**2 overflows in the broadening
    (("spectrum", "--model", "anharmonic-oracle", "--N", 10, "--epsilon", 1e200), None, 3),
    (("spectrum",), '{"g": "x"}', 2),
    # the pair denominator overflows far from the spectrum
    (("spectrum", "--model", "anharmonic-rpm", "--N", 10, "--epsilon", 1e200), None, 3),
    (("spectrum", "--model", "anharmonic-rpm", "--N", 10, "--epsilon", 0.01),
     '{"grid": [null, 1]}', 2),
    (("spectrum", "--model", "anharmonic-rpm", "--N", 10, "--epsilon", 0.01),
     '{"points": null}', 2),
    (("spectrum", "--model", "anharmonic-rpm", "--N", 10, "--epsilon", 0.01),
     '{"points": 1e999}', 2),
    (("noon", "--model", "harmonic", "--N", 4, "--tmax", 5), '{"bins": null}', 2),
    (("noon", "--model", "harmonic", "--tmax", 5), '{"sweep_n": [null]}', 2),
    (("spectrum", "--model", "harmonic", "--N", 4), '{"epsilon": "x"}', 2),
    (("noon", "--model", "harmonic", "--N", 4, "--tmax", 5), '{"noon_threshold": "x"}', 2),
    (("dynamics", "--model", "harmonic", "--N", 4, "--tmax", 5),
     '{"transfer_threshold": "x"}', 2),
    (("dynamics", "--model", "harmonic", "--N", 4, "--tmax", 0, "--first-transfer"),
     None, 2),
    (("spectrum", "--model", "harmonic", "--N", 4), '{"g": true}', 2),
    # the time grid cannot be allocated
    (("dynamics", "--model", "harmonic", "--N", 4, "--tmax", 1e12, "--dt", 1e-3), None, 2),
    # the pair denominator overflows but d stays finite: a flushes to 0
    (("spectrum", "--model", "anharmonic-rpm", "--N", 10, "--epsilon", 1e200),
     '{"grid": [0, 1], "points": 5}', 3),
], ids=[
    "harmonic-J-nan", "rpm-J-inf", "rpm-epsilon-inf", "rpm-epsilon-1e308",
    "grid-1e999", "dynamics-tmax-inf", "noon-tmax-inf",
    "oracle-epsilon-1e308", "oracle-epsilon-overflow", "config-g-string",
    "rpm-epsilon-overflow", "grid-null", "points-null", "points-1e999", "bins-null",
    "sweep-n-null", "epsilon-string", "noon-threshold-string",
    "transfer-threshold-string", "empty-window-first-transfer", "g-boolean",
    "time-grid-too-large", "rpm-epsilon-overflow-to-zero",
])
def test_bad_numeric_input_exits_without_csv(tmp_path, args, config, code):
    extra = ()
    if config is not None:
        path = tmp_path / "bad.json"
        path.write_text(config)
        extra = ("--config", path)
    out = tmp_path / "out"
    result = invoke(*args, *extra, "--out", out)
    assert result.exit_code == code, result.output
    assert list(out.glob("*.csv")) == []


@pytest.mark.parametrize("command, model", [
    ("spectrum", "jc"), ("spectrum", "harmonic"), ("spectrum", "anharmonic-oracle"),
    ("dynamics", "harmonic"), ("noon", "anharmonic-oracle"),
])
def test_integral_float_photon_number_runs_as_int(tmp_path, command, model):
    config = tmp_path / "float_n.json"
    config.write_text('{"N": 4.0, "tmax": 5}')
    runs = {}
    for name, extra in (("float", ("--config", config)), ("int", ("--N", 4, "--tmax", 5))):
        out = tmp_path / name
        result = invoke(command, "--model", model, *extra, "--out", out)
        assert result.exit_code == 0, result.output
        runs[name] = {p.name: p.read_bytes() for p in out.glob("*.csv")}
    assert runs["float"] and runs["float"] == runs["int"]


def test_malformed_config_reports_line(tmp_path):
    config = tmp_path / "broken.json"
    config.write_text('{\n  "model": "harmonic",\n  oops\n}\n')
    result = invoke("spectrum", "--config", config, "--out", tmp_path)
    assert result.exit_code == 2
    assert "line 3" in result.output


def test_unknown_config_key_rejected(tmp_path):
    config = tmp_path / "typo.json"
    config.write_text(json.dumps({"modle": "harmonic"}))
    result = invoke("spectrum", "--config", config, "--out", tmp_path)
    assert result.exit_code == 2
    assert "modle" in result.output


def test_unknown_model_rejected(tmp_path):
    result = invoke("spectrum", "--model", "bogus", "--out", tmp_path)
    assert result.exit_code == 2
    assert "model" in result.output


def test_near_pole_evaluation_exits_3(tmp_path):
    config = tmp_path / "pole.json"
    config.write_text(json.dumps({"grid": [2.0, 2.001], "points": 2}))
    result = invoke("spectrum", "--config", config, "--model", "anharmonic-rpm",
                    "--N", 2, "--g", 0, "--J", 1, "--omega0", 0,
                    "--epsilon", 1e-320, "--out", tmp_path)
    assert result.exit_code == 3
    assert "pole" in result.output


def test_recursion_overflow_exits_3_with_only_the_error_line(tmp_path):
    """Far from the spectrum the pair denominators overflow; the run reports it
    in its own error line, with no NumPy warning printed before it."""
    probe = run_python("-m", "cavity_rpm.cli", "spectrum", "--model", "anharmonic-rpm",
                       "--N", "10", "--epsilon", "1e200", "--out", str(tmp_path))
    assert probe.returncode == 3
    assert probe.stderr.splitlines() == [
        "error: the pair recursion overflowed; evaluate nearer the spectrum"]
    assert list(tmp_path.iterdir()) == []


def test_validate_passes_by_default(tmp_path):
    result = invoke("validate", "--out", tmp_path)
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "validation_report.json").read_text())
    assert report["passed"] is True
    assert len(report["checks"]) == len(validation.CHECKS)


def test_validate_empty_selection_rejected(tmp_path):
    config = tmp_path / "empty.json"
    config.write_text(json.dumps({"checks": []}))
    result = invoke("validate", "--config", config, "--out", tmp_path)
    assert result.exit_code == 2


def test_validate_failure_exits_4(tmp_path, monkeypatch):
    monkeypatch.setitem(
        validation.CHECKS, "forced_failure",
        lambda: CheckResult("forced_failure", False, "forced for the exit-code test", {}),
    )
    config = tmp_path / "forced.json"
    config.write_text(json.dumps({"checks": ["forced_failure"]}))
    result = invoke("validate", "--config", config, "--out", tmp_path)
    assert result.exit_code == 4
    report = json.loads((tmp_path / "validation_report.json").read_text())
    assert report["passed"] is False
