"""End-to-end command-line behavior: files, determinism, exit codes."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import cavity_rpm
from cavity_rpm import cli, effective, harmonic, jc, rpm, validation
from cavity_rpm.cli import DEFAULTS, main
from cavity_rpm.core import LineSpectrum, ModelParams
from cavity_rpm.dynamics import evolve
from cavity_rpm.validation import CheckResult


def invoke(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


def test_csv_text_is_format_17g_of_every_value(tmp_path):
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e308, -1e308]
    rng = np.random.default_rng(3)
    spread = rng.choice([-1.0, 1.0], 2 * 2500) * 10.0 ** rng.uniform(-300, 300, 2 * 2500)
    first = np.concatenate([special, spread[:2500]])
    second = np.concatenate([special[::-1], spread[2500:]])
    path = tmp_path / "values.csv"
    cli._write_csv(path, [("x", first), ("y", second)])
    expected = "x,y\n" + "".join(
        f"{format(u, '.17g')},{format(v, '.17g')}\n"
        for u, v in zip(first.tolist(), second.tolist()))
    assert path.read_bytes() == expected.encode("utf-8")
    cli._write_csv(path, [("only", ())])
    assert path.read_bytes() == b"only\n"
    # a column of text is written as it is
    cli._write_csv(path, [("label", np.array(["0.25", "-0"])), ("x", [0.1, -0.0])])
    assert path.read_bytes() == b"label,x\n0.25,0.10000000000000001\n-0,-0\n"


@pytest.mark.parametrize("rows", [0, 1, 1023, 1024, 1025, 2049])
def test_csv_blocks_read_as_one_line_per_row(tmp_path, rows):
    """A block of rows formatted at once gives the text of formatting each row
    by itself, across block boundaries, for text, -0, inf and nan too."""
    rng = np.random.default_rng(rows)
    special = np.array([-0.0, np.inf, np.nan, -np.inf, 0.0])
    x = np.resize(special, rows)
    y = rng.standard_normal(rows) * 10.0 ** rng.uniform(-300, 300, rows)
    label = np.array([f"r{k}" for k in range(rows)], dtype=str)
    path = tmp_path / "block.csv"
    cli._write_csv(path, [("label", label), ("x", x), ("y", y)])
    line = "%s,%.17g,%.17g\n"
    expected = "label,x,y\n" + "".join(
        line % row for row in zip(label.tolist(), x.tolist(), y.tolist()))
    assert path.read_bytes() == expected.encode("utf-8")


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
        "harmonic": {"lines": 3, "zero_weight_lines": 0, "weight_sum_defect": 0.0,
                     "half_weight_sum_defects": {"sym": 0.0, "anti": 0.0}}}


def test_chain_levels_equal_once_the_centre_is_added_back_form_one_line(tmp_path):
    """J = 1e-17 lies below the rounding of the levels at 4: the chains'
    eigenvalues, resolved apart about 0, become one double, and the line
    table is the harmonic one."""
    args = ("--N", 4, "--J", 1e-17, "--omega0", 1, "--g", 0)
    for model in ("harmonic", "anharmonic-oracle"):
        result = invoke("spectrum", "--model", model, *args, "--out", tmp_path)
        assert result.exit_code == 0, result.output
        rows = (tmp_path / f"spectrum_{model}.csv").read_text().splitlines()
        assert rows == ["energy,weight00,weightN0", "4,1,0"]


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


def test_dynamics_with_first_transfer(tmp_path):
    """The same run into two directories writes the same bytes: the sidecar
    names the first-transfer file, not its path."""
    written = []
    for out in (tmp_path / "o1", tmp_path / "o2" / "deeper"):
        result = invoke("dynamics", "--model", "anharmonic-oracle", "--N", 6,
                        "--g", 1.2, "--J", 0.8, "--tmax", 10, "--dt", 0.01,
                        "--compare", "--first-transfer", "--out", out)
        assert result.exit_code == 0, result.output
        written.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert written[0] == written[1]
    files = written[0]
    assert sorted(files) == ["dynamics_anharmonic-oracle.csv",
                             "dynamics_anharmonic-oracle.json", "first_transfer.json"]
    header = files["dynamics_anharmonic-oracle.csv"].decode().splitlines()[0]
    assert header.startswith("t,return_re,return_im,return_abs,transition_re")
    assert "harmonic_return_re" in header
    transfer = json.loads(files["first_transfer.json"])
    assert set(transfer["times"]) == {"anharmonic-oracle", "harmonic"}
    assert 0.0 < transfer["times"]["harmonic"] < 10.0
    sidecar = json.loads(files["dynamics_anharmonic-oracle.json"])
    assert sidecar["first_transfer"] == "first_transfer.json"
    diagnostics = sidecar["diagnostics"]
    assert set(diagnostics) == {"anharmonic-oracle", "harmonic"}
    assert diagnostics["anharmonic-oracle"]["lines"] == 7
    assert abs(diagnostics["anharmonic-oracle"]["weight_sum_defect"]) < 1e-12


def test_odd_photon_numbers_run_on_every_route(tmp_path):
    result = invoke("spectrum", "--compare", "--N", 7, "--epsilon", 0.01, "--out", tmp_path)
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "spectrum_compare.json").read_text())["compare"]
    assert report["linf_rho00"] <= 1e-10
    assert report["linf_rhoN0"] <= 1e-10
    result = invoke("noon", "--model", "harmonic", "--N", 5, "--tmax", 50, "--out", tmp_path)
    assert result.exit_code == 0, result.output
    summary = json.loads((tmp_path / "noon_harmonic.json").read_text())["summary"]
    assert summary["t_max"] == 50
    result = invoke("dynamics", "--model", "anharmonic-oracle", "--N", 7, "--compare",
                    "--out", tmp_path)
    assert result.exit_code == 0, result.output
    diagnostics = json.loads((tmp_path / "dynamics_anharmonic-oracle.json").read_text())[
        "diagnostics"]
    assert diagnostics["harmonic"] == {
        "lines": 8, "zero_weight_lines": 0, "weight_sum_defect": 0.0,
        "half_weight_sum_defects": {"sym": 0.0, "anti": 0.0}}


def test_edge_doublet_writes_two_lines_and_densities_that_match_the_recursion(tmp_path):
    """At N=20, g=2, J=0.2, omega0=0 the edge state's lines in the two
    parity halves lie about 1.5e-10 apart: the line table keeps both, with
    cross weights of opposite sign, and the densities broadened from the
    halves agree with the recursion's."""
    args = ("--N", 20, "--g", 2, "--J", 0.2, "--omega0", 0, "--out", tmp_path)
    result = invoke("spectrum", "--model", "anharmonic-oracle", *args)
    assert result.exit_code == 0, result.output
    rows = (tmp_path / "spectrum_anharmonic-oracle.csv").read_text().splitlines()[1:]
    assert len(rows) == 21
    (e_sym, w_sym, c_sym), (e_anti, w_anti, c_anti) = (
        [float(x) for x in row.split(",")] for row in rows[:2])
    assert 1e-10 < e_anti - e_sym < 2e-10
    assert w_sym == pytest.approx(0.466, abs=1e-3) and w_anti == pytest.approx(w_sym)
    assert c_sym == w_sym and c_anti == -w_anti
    sidecar = json.loads((tmp_path / "spectrum_anharmonic-oracle.json").read_text())
    assert sidecar["diagnostics"]["anharmonic-oracle"]["lines"] == 21
    result = invoke("spectrum", "--compare", "--epsilon", 0.01, *args)
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "spectrum_compare.json").read_text())["compare"]
    assert report["linf_rho00"] <= 1e-10
    assert report["linf_rhoN0"] <= 1e-10


def test_nearly_degenerate_levels_keep_their_place_in_the_density(tmp_path):
    """At J=0 and g=1e-9 the edge level lies 1.4e-9 below the next one,
    closer than a relative 1e-9 of their energy 3, and the line density
    keeps it where the recursion puts it."""
    result = invoke("spectrum", "--compare", "--N", 3, "--g", 1e-9, "--J", 0,
                    "--omega0", 1, "--epsilon", 1, "--out", tmp_path)
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "spectrum_compare.json").read_text())["compare"]
    assert report["linf_rho00"] <= 1e-14


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


def run_python(*args, **env):
    """A fresh interpreter with this package on its path and the environment
    variables ``env`` set."""
    src = str(Path(cavity_rpm.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args],
                          env={**os.environ, "PYTHONPATH": path, **env},
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("args", [
    ("noon", "--N", "300"),
    ("spectrum", "--compare", "--N", "3000", "--epsilon", "0.01"),
], ids=["noon-n300", "spectrum-compare-n3000"])
def test_output_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, args):
    """The N00N statistics and the broadening products write the same bytes
    under one and two OpenBLAS threads."""
    written = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        probe = run_python("-c", "from cavity_rpm.cli import main; main()", *args,
                           "--out", str(out), OPENBLAS_NUM_THREADS=threads)
        assert probe.returncode == 0, probe.stderr
        written.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert len(written[0]) == 2
    assert written[0] == written[1]


# in a fresh interpreter: every command that solves a parity chain, then a
# later import of scipy.linalg, which must find the extension the binding
# loaded, and SciPy's own dstevd, which must give the binding's bytes
ORACLE_COMMANDS_THEN_SCIPY_LINALG = """
import sys
from cavity_rpm import cli, effective
from cavity_rpm.core import ModelParams
from cavity_rpm.effective import build_sector_hamiltonian

out = sys.argv[1]
for argv in (["spectrum", "--model", "anharmonic-oracle", "--N", "600"],
             ["spectrum", "--compare", "--N", "20", "--epsilon", "0.05"],
             ["dynamics", "--model", "anharmonic-oracle", "--N", "20", "--tmax", "5"],
             ["noon", "--N", "10", "--tmax", "20"],
             ["validate"]):
    cli.main([*argv, "--out", out], standalone_mode=False)
assert "scipy.linalg" not in sys.modules
loaded = sys.modules["scipy.linalg.cython_lapack"]
import scipy.linalg
from scipy.linalg import cython_lapack, lapack
assert cython_lapack is loaded
for n in (100, 600):
    h = build_sector_hamiltonian(ModelParams(n_photons=n, omega0=1.0, g=1.2, j_tun=0.8))
    for d, e in effective._parity_chains(h)[1:]:
        reference, _, info = lapack.dstevd(d, e, compute_v=0)
        assert info == 0
        assert effective._chain_eigenvalues(d, e).tobytes() == reference.tobytes()
print("ok")
"""


def test_cli_import_leaves_scipy_linalg_unloaded(tmp_path):
    """Neither the import nor any command loads the scipy.linalg package:
    the dstevd binding loads its extension alone, and a later import of
    scipy.linalg reuses that module."""
    probe = run_python("-c", "import sys, cavity_rpm.cli; print('scipy.linalg' in sys.modules)")
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "False"
    probe = run_python("-c", ORACLE_COMMANDS_THEN_SCIPY_LINALG, str(tmp_path))
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.splitlines()[-1] == "ok"


def test_dstevd_binding_after_scipy_linalg_import_loads_no_second_module():
    """With scipy.linalg imported first, the binding takes its extension
    from sys.modules and loads no module of its own."""
    probe = run_python("-c", """
import sys
import scipy.linalg
from scipy.linalg import cython_lapack
from cavity_rpm.core import ModelParams
from cavity_rpm.effective import build_sector_hamiltonian, parity_chain_spectra

loaded = set(sys.modules)
parity_chain_spectra(build_sector_hamiltonian(
    ModelParams(n_photons=100, omega0=1.0, g=1.2, j_tun=0.8)))
assert sys.modules["scipy.linalg.cython_lapack"] is cython_lapack
assert sorted(set(sys.modules) - loaded) == []
print("ok")
""")
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "ok"


def test_concurrent_first_calls_get_one_dstevd_binding():
    """Eight threads released at once, switching every microsecond, make the
    process's first calls of the binding: none reads a half-initialised
    extension, and all get the same binding."""
    probe = run_python("-c", """
import sys, threading
from cavity_rpm import effective

barrier = threading.Barrier(8)
bindings, errors = [], []

def first_call():
    barrier.wait()
    try:
        bindings.append(effective._lapack_dstevd())
    except Exception as exc:
        errors.append(repr(exc))

threads = [threading.Thread(target=first_call) for _ in range(8)]
interval = sys.getswitchinterval()
sys.setswitchinterval(1e-6)
try:
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
finally:
    sys.setswitchinterval(interval)
assert not any(thread.is_alive() for thread in threads)
assert errors == [], errors
assert len(bindings) == 8 and all(b is bindings[0] for b in bindings)
print("ok")
""")
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "ok"


def test_threaded_parity_chains_as_first_call():
    """The first eigensolve of the process is a threaded one: both threads
    ask for the binding at once."""
    probe = run_python("-c", """
from cavity_rpm import effective
from cavity_rpm.core import ModelParams
from cavity_rpm.effective import build_sector_hamiltonian, parity_chain_spectra

n = 2 * effective._CONCURRENT_ROWS
sym, anti = parity_chain_spectra(build_sector_hamiltonian(
    ModelParams(n_photons=n, omega0=1.0, g=1.2, j_tun=0.8)))
assert sym.energies.size + anti.energies.size == n + 1
print("ok")
""")
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "ok"


def test_dynamics_empty_window_writes_header_only(tmp_path):
    result = invoke("dynamics", "--model", "harmonic", "--N", 2, "--J", 0.8,
                    "--tmax", 0, "--out", tmp_path)
    assert result.exit_code == 0, result.output
    text = (tmp_path / "dynamics_harmonic.csv").read_text()
    content = text.splitlines()
    assert len(content) == 1
    assert content[0].startswith("t,return_re")
    assert text == content[0] + "\n"


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


def test_noon_sidecar_reports_each_half_weight_sum_defect(tmp_path):
    """At t = 0 the halves' amplitudes are their weight sums S and A, and the
    N00N score (|c0| + |cN|)^2 / 2 is max(S, A)^2 / 2: the per-half defects
    explain whether the initial sample scores 0.5 or a rounding below."""
    result = invoke("noon", "--N", 100, "--tmax", 1, "--out", tmp_path)
    assert result.exit_code == 0, result.output
    sidecar = json.loads((tmp_path / "noon_anharmonic-oracle.json").read_text())
    diagnostics = sidecar["diagnostics"]["anharmonic-oracle"]
    halves = effective.parity_chain_spectra(effective.build_sector_hamiltonian(
        ModelParams(n_photons=100, omega0=1.0, g=1.2, j_tun=0.8)))
    assert diagnostics["half_weight_sum_defects"] == {
        name: float(np.sum(half.weights)) - 1.0 for name, half in zip(("sym", "anti"), halves)}
    best = 1.0 + max(diagnostics["half_weight_sum_defects"].values())
    assert sidecar["summary"]["max_score"] == pytest.approx(best**2 / 2, rel=0, abs=1e-14)


def test_noon_sidecar_holds_sampled_and_exact_long_time_means(tmp_path):
    """The default run samples long enough: both <|cN|^2> read 0.056341.  At
    N=20, g=2, J=0.2, omega0=0 the edge doublet's transfer lies beyond the
    default window, and the sampled 0.00079 stands against the exact 0.435."""
    means = {}
    for name, args in (("default", ()),
                       ("doublet", ("--N", 20, "--g", 2, "--J", 0.2, "--omega0", 0))):
        result = invoke("noon", *args, "--out", tmp_path / name)
        assert result.exit_code == 0, result.output
        sidecar = json.loads((tmp_path / name / "noon_anharmonic-oracle.json").read_text())
        means[name] = sidecar["long_time_means"]
    default, doublet = means["default"], means["doublet"]
    assert round(default["abs_cN_sq"]["sampled"], 6) == 0.056341
    assert round(default["abs_cN_sq"]["exact"], 6) == 0.056341
    assert default["abs_c0_sq"]["exact"] == default["abs_cN_sq"]["exact"]
    assert round(doublet["abs_cN_sq"]["sampled"], 5) == 0.00079
    assert round(doublet["abs_cN_sq"]["exact"], 3) == 0.435


def test_noon_refuses_an_oversized_window_before_any_work(tmp_path):
    """10^15 samples exit 2 at once with the sample count named, and nothing
    is written."""
    start = time.perf_counter()
    result = invoke("noon", "--model", "harmonic", "--N", 4, "--tmax", 1e12, "--dt", 1e-3,
                    "--out", tmp_path)
    assert time.perf_counter() - start < 5.0
    assert result.exit_code == 2
    assert "time grid too large: 1000000000000001 samples" in result.output
    assert list(tmp_path.glob("*.csv")) == [] and list(tmp_path.glob("*.json")) == []


def test_noon_refuses_one_bin_before_any_synthesis(tmp_path):
    """One bin at the default N=100 window (2,000,030 samples) exits 2 at
    once with the bin count named, and nothing is written."""
    start = time.perf_counter()
    result = invoke("noon", "--bins", 1, "--out", tmp_path)
    assert time.perf_counter() - start < 5.0
    assert result.exit_code == 2
    assert "need at least 2 bins, got 1" in result.output
    assert list(tmp_path.glob("*.csv")) == [] and list(tmp_path.glob("*.json")) == []


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


def test_delta_zero_runs_and_echoes_and_other_values_are_named(tmp_path):
    config = tmp_path / "resonant.json"
    config.write_text('{"delta": 0.0}')
    result = invoke("spectrum", "--model", "jc", "--N", 3, "--config", config,
                    "--out", tmp_path)
    assert result.exit_code == 0, result.output
    assert '"delta": 0.0' in (tmp_path / "spectrum_jc.json").read_text()
    config.write_text('{"delta": -0.25}')
    result = invoke("spectrum", "--model", "jc", "--N", 3, "--config", config,
                    "--out", tmp_path)
    assert result.exit_code == 2
    assert "delta must be 0 (every model is resonant), got -0.25" in result.output


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
    # non-finite values of keys the command does not read, or reads only to echo
    (("spectrum", "--model", "harmonic", "--N", 4, "--tmax", "nan"), None, 2),
    (("dynamics", "--model", "harmonic", "--N", 4, "--epsilon", "nan"), None, 2),
    (("noon", "--model", "harmonic", "--N", 4, "--tmax", 20), '{"noon_threshold": 1e999}', 2),
    (("dynamics", "--model", "harmonic", "--N", 4, "--tmax", 0, "--dt", "inf"), None, 2),
    # integers beyond double range
    (("spectrum", "--model", "harmonic", "--N", 4), '{"g": 1%s}' % ("0" * 400), 2),
    (("spectrum", "--model", "harmonic", "--N", 4), '{"tmax": 1%s}' % ("0" * 400), 2),
    (("dynamics", "--model", "harmonic", "--N", 4, "--tmax", 0, "--dt", -1), None, 2),
    (("dynamics", "--model", "harmonic", "--N", 4, "--tmax", 0, "--dt", 0), None, 2),
    # tmax / dt overflows
    (("dynamics", "--model", "harmonic", "--N", 4, "--tmax", 1e300, "--dt", 1e-10), None, 2),
    (("noon", "--model", "harmonic", "--N", 4, "--tmax", 1e300, "--dt", 1e-10), None, 2),
    # every model is resonant: a detuning is refused, not ignored
    (("spectrum", "--model", "jc", "--N", 4), '{"delta": 0.5}', 2),
    (("spectrum", "--model", "harmonic", "--N", 4), '{"delta": 0.5}', 2),
    (("spectrum", "--model", "anharmonic-oracle", "--N", 4), '{"delta": 0.5}', 2),
    (("spectrum", "--model", "anharmonic-rpm", "--N", 4, "--epsilon", 0.05),
     '{"delta": 0.5}', 2),
    (("validate",), '{"delta": 0.5}', 2),
], ids=[
    "harmonic-J-nan", "rpm-J-inf", "rpm-epsilon-inf", "rpm-epsilon-1e308",
    "grid-1e999", "dynamics-tmax-inf", "noon-tmax-inf",
    "oracle-epsilon-1e308", "oracle-epsilon-overflow", "config-g-string",
    "rpm-epsilon-overflow", "grid-null", "points-null", "points-1e999", "bins-null",
    "sweep-n-null", "epsilon-string", "noon-threshold-string",
    "transfer-threshold-string", "empty-window-first-transfer", "g-boolean",
    "time-grid-too-large", "rpm-epsilon-overflow-to-zero", "spectrum-tmax-nan",
    "dynamics-epsilon-nan", "noon-threshold-1e999", "empty-window-dt-inf",
    "g-integer-beyond-double", "tmax-integer-beyond-double",
    "empty-window-dt-negative", "empty-window-dt-zero", "dynamics-steps-overflow",
    "noon-steps-overflow", "delta-jc", "delta-harmonic", "delta-anharmonic-oracle",
    "delta-anharmonic-rpm", "delta-validate",
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
    assert list(out.glob("*.csv")) == [] and list(out.glob("*.json")) == []


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


def test_near_pole_evaluation_exits_3(tmp_path):
    config = tmp_path / "pole.json"
    config.write_text(json.dumps({"grid": [2.0, 2.001], "points": 2}))
    result = invoke("spectrum", "--config", config, "--model", "anharmonic-rpm",
                    "--N", 2, "--g", 0, "--J", 1, "--omega0", 0,
                    "--epsilon", 1e-320, "--out", tmp_path)
    assert result.exit_code == 3
    assert "pole" in result.output


def test_pole_at_the_recursion_seed_exits_3_with_only_the_error_line(tmp_path):
    """The middle grid point z = -1e-320j sits on the centre state's level."""
    config = tmp_path / "pole.json"
    config.write_text(json.dumps({"grid": [-1e-300, 1e-300], "points": 3}))
    out = tmp_path / "out"
    probe = run_python("-m", "cavity_rpm.cli", "spectrum", "--config", str(config),
                       "--model", "anharmonic-rpm", "--N", "2", "--g", "0", "--J", "1",
                       "--omega0", "0", "--epsilon", "1e-320", "--out", str(out))
    assert probe.returncode == 3
    assert probe.stderr.splitlines() == [
        "error: resolvent pole hit at depth 0; move z further off the real axis"]
    assert list(out.iterdir()) == []


def test_recursion_overflow_exits_3_with_only_the_error_line(tmp_path):
    """Far from the spectrum the pair denominators overflow; the run reports it
    in its own error line, with no NumPy warning printed before it."""
    probe = run_python("-m", "cavity_rpm.cli", "spectrum", "--model", "anharmonic-rpm",
                       "--N", "10", "--epsilon", "1e200", "--out", str(tmp_path))
    assert probe.returncode == 3
    assert probe.stderr.splitlines() == [
        "error: the pair recursion overflowed; evaluate nearer the spectrum"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [
    ("spectrum", "--model", "anharmonic-oracle"),
    ("spectrum", "--model", "anharmonic-rpm", "--epsilon", "0.1"),
    ("dynamics",),
], ids=["spectrum-oracle", "spectrum-rpm", "dynamics"])
def test_overflowing_sector_entry_exits_2_with_only_the_error_line(tmp_path, args):
    """At g = 1e308 the sector diagonal overflows; the run names it, with no
    NumPy warning printed before it."""
    out = tmp_path / "out"
    probe = run_python("-m", "cavity_rpm.cli", *args, "--g", "1e308", "--out", str(out))
    assert probe.returncode == 2
    assert probe.stderr.splitlines() == [
        "error: sector matrix overflowed: its entries must be finite"]
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("args, message", [
    (("--model", "harmonic", "--omega0", "1e308"), "line energies overflowed: they must be finite"),
    (("--model", "harmonic", "--J", "1e308"), "line energies overflowed: they must be finite"),
    (("--model", "jc", "--g", "1e308"), "dressed energy overflowed: g**2 must be finite"),
], ids=["harmonic-omega0", "harmonic-J", "jc"])
def test_overflowing_line_energy_exits_2_with_only_the_error_line(tmp_path, args, message):
    """A closed-form line energy beyond double range is refused as the
    sector models refuse an overflowing matrix entry: no infinite line is
    written, no NumPy warning comes first, and no Python OverflowError reads
    as a numerical failure."""
    out = tmp_path / "out"
    probe = run_python("-m", "cavity_rpm.cli", "spectrum", *args, "--N", "2", "--out", str(out))
    assert probe.returncode == 2
    assert probe.stderr.splitlines() == [f"error: {message}"]
    assert list(out.iterdir()) == []


LINE_MODELS = "jc, harmonic or anharmonic-oracle"
NOON_MODELS = "harmonic or anharmonic-oracle"


@pytest.mark.parametrize("args, message", [
    (("dynamics", "--model", "anharmonic-rpm"),
     f"dynamics needs a line-resolved model ({LINE_MODELS})"),
    (("dynamics", "--model", "anharmonic-rpm", "--tmax", "0"),
     f"dynamics needs a line-resolved model ({LINE_MODELS})"),
    (("noon", "--model", "jc"),
     f"noon statistics need sector line spectra; use model {NOON_MODELS}"),
    (("noon", "--model", "anharmonic-rpm"),
     f"noon statistics need sector line spectra; use model {NOON_MODELS}"),
    (("spectrum", "--model", "anharmonic-rpm"),
     "model 'anharmonic-rpm' provides no line spectrum; it evaluates broadened densities "
     "only (set epsilon)"),
    (("spectrum", "--model", "bogus"),
     "model must be one of jc, harmonic, anharmonic-rpm, anharmonic-oracle, got 'bogus'"),
], ids=["dynamics-rpm", "dynamics-rpm-tmax-0", "noon-jc", "noon-rpm", "spectrum-rpm-lines",
        "spectrum-bogus"])
def test_model_refusal_exits_2_with_only_its_error_line(tmp_path, args, message):
    """Each command refuses a model that its route cannot take before any
    work, with the models it takes listed in table order, and writes nothing."""
    out = tmp_path / "out"
    probe = run_python("-m", "cavity_rpm.cli", *args, "--N", "4", "--out", str(out))
    assert probe.returncode == 2
    assert probe.stderr.splitlines() == [f"error: {message}"]
    assert probe.stdout == ""
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == []


def stub_halves(params):
    """A stand-in model: two lines in the symmetric half, one in the other."""
    centre = params.omega0 * params.n_photons
    return LineSpectrum([centre - 1, centre + 1], [0.5, 0.5]), LineSpectrum([centre], [1.0])


def test_a_new_model_needs_only_its_table_entry(tmp_path, monkeypatch):
    """A model registered in the table alone runs every route its entry
    allows, and each refusal names it where it belongs."""
    monkeypatch.setitem(cli.MODELS, "stub", cli._Model(stub_halves, sector=False))
    common = ("--model", "stub", "--N", 4, "--omega0", 1)
    result = invoke("spectrum", *common, "--out", tmp_path / "lines")
    assert result.exit_code == 0, result.output
    assert (tmp_path / "lines" / "spectrum_stub.csv").read_text().splitlines() == [
        "energy,weight00,weightN0", "3,0.25,0.25", "4,0.5,-0.5", "5,0.25,0.25"]

    # without a sector matrix the default grid spans the lines, padded by 1
    result = invoke("spectrum", *common, "--epsilon", 0.1, "--out", tmp_path / "densities")
    assert result.exit_code == 0, result.output
    rows = (tmp_path / "densities" / "spectrum_stub.csv").read_text().splitlines()
    assert (rows[1].split(",")[0], rows[-1].split(",")[0]) == ("2", "6")
    sidecar = json.loads((tmp_path / "densities" / "spectrum_stub.json").read_text())
    assert "diagnostics" not in sidecar

    result = invoke("dynamics", *common, "--tmax", 1, "--dt", 0.5, "--out", tmp_path / "dyn")
    assert result.exit_code == 0, result.output
    ret, _ = evolve(*stub_halves(ModelParams(n_photons=4, omega0=1.0)), 1.0, 0.5)
    rows = (tmp_path / "dyn" / "dynamics_stub.csv").read_text().splitlines()
    assert [row.split(",")[1] for row in rows[1:]] == ["%.17g" % v for v in ret.values.real]

    result = invoke("noon", *common, "--out", tmp_path / "noon")
    assert result.exit_code == 2
    assert result.output == (
        f"error: noon statistics need sector line spectra; use model {NOON_MODELS}\n")
    result = invoke("dynamics", "--model", "anharmonic-rpm", "--out", tmp_path / "dyn")
    assert result.exit_code == 2
    assert result.output == (
        "error: dynamics needs a line-resolved model (jc, harmonic, anharmonic-oracle or stub)\n")


# the library function each model's route runs, as an attribute of its module
ROUTES = {
    "jc": (jc, "rabi_line_spectra"),
    "harmonic": (harmonic, "harmonic_line_spectra"),
    "anharmonic-oracle": (effective, "parity_chain_spectra"),
    "anharmonic-rpm": (rpm, "rpm_spectra"),
}


@pytest.mark.parametrize("model", ROUTES)
def test_each_model_calls_its_route_through_the_module(tmp_path, monkeypatch, model):
    """The table looks each route up on its module when it runs, so a function
    replaced there, as the benchmark's tracing spans replace them, is the one
    called."""
    calls = dict.fromkeys(ROUTES, 0)
    for name, (module, attr) in ROUTES.items():
        def counting(*args, _name=name, _route=getattr(module, attr)):
            calls[_name] += 1
            return _route(*args)
        monkeypatch.setattr(module, attr, counting)
    epsilon = ("--epsilon", 0.1) if model == "anharmonic-rpm" else ()
    result = invoke("spectrum", "--model", model, "--N", 4, *epsilon, "--out", tmp_path)
    assert result.exit_code == 0, result.output
    assert {name for name, count in calls.items() if count} == {model}


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


def test_validate_exits_4_on_a_nan_route(tmp_path, monkeypatch):
    def nan_spectra(params, grid, epsilon):
        return np.full(grid.shape, np.nan), np.full(grid.shape, np.nan)

    monkeypatch.setattr(rpm, "rpm_spectra", nan_spectra)
    config = tmp_path / "mirror.json"
    config.write_text(json.dumps({"checks": ["mirror_image"]}))
    result = invoke("validate", "--config", config, "--out", tmp_path)
    assert result.exit_code == 4
    report = json.loads((tmp_path / "validation_report.json").read_text())
    assert report["checks"][0]["data"] == {"max_deviation": "nan"}


def test_validate_failure_with_non_finite_figures_writes_strict_json(tmp_path, monkeypatch):
    """A failed check may report NaN or an infinity; the report holds them as
    text, so that a parser without NaN and Infinity reads it."""
    data = {"max_deviation": float("inf"), "first_failure": {"relative_error": float("nan")}}
    monkeypatch.setitem(
        validation.CHECKS, "non_finite",
        lambda: CheckResult("non_finite", False, "forced non-finite figures", data),
    )
    config = tmp_path / "forced.json"
    config.write_text(json.dumps({"checks": ["non_finite"]}))
    result = invoke("validate", "--config", config, "--out", tmp_path)
    assert result.exit_code == 4

    def refuse(name):
        raise ValueError(f"not RFC 8259 JSON: {name}")

    text = (tmp_path / "validation_report.json").read_text()
    report = json.loads(text, parse_constant=refuse)
    assert report["checks"][0]["data"] == {
        "max_deviation": "inf", "first_failure": {"relative_error": "nan"}}


def test_sidecar_with_a_non_finite_value_is_refused_unwritten(tmp_path):
    path = tmp_path / "sidecar.json"
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="JSON"):
            cli._write_json(path, {"config": {"tmax": bad}})
        assert not path.exists()
