"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

Every workload runs at its tiny size and must report every metric named in
BENCHMARK.json; every correctness check must pass on the program's real
output and fail on a perturbed copy of it.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import calibration  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tiny_run_reports_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 2 * len(workloads.commands(workload, "tiny", "."))
    assert result["failed"] == 0
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_a_directory_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rpm-n10000", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Parsed tiny-size outputs of one pass, made once per workload."""
    made = {}

    def get(workload):
        if workload not in made:
            made[workload] = _make_outputs(workload, tmp_path_factory.mktemp(workload))
        return copy.deepcopy(made[workload])
    return get


def _make_outputs(workload, out):
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--size", "tiny", "--out", str(out), "--seconds", "0"],
        env=run.child_env(), cwd=HERE.parent, check=True, capture_output=True,
        timeout=170)
    return reference.load(workload, out)


def _scale(key, column, factor):
    def edit(data):
        data[key][column] = data[key][column] * factor
    return edit


def _add(key, column, index, delta):
    def edit(data):
        data[key][column] = data[key][column].copy()
        data[key][column][index] += delta
    return edit


def _conjugate(key, column):
    return _scale(key, column, -1.0)


def _set(path, value):
    def edit(data):
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value(target[path[-1]]) if callable(value) else value
    return edit


def _flip_bins(data):
    table = data["noon_anharmonic-oracle.csv"]
    table["mass"] = table["mass"][::-1].copy()


def _shift_argmax(data):
    summary = data[NOON_JSON]["summary"]
    summary["argmax_time"] += 7 * summary["dt"]


def _fail_one_validation_check(data):
    data["validation_report.json"]["checks"][2]["passed"] = False


def _drop_validation_check(data):
    data["validation_report.json"]["checks"].pop()


CMP, DYN, FT = "spectrum_compare.csv", "dynamics_anharmonic-oracle.csv", "first_transfer.json"
RPM = "spectrum_anharmonic-rpm.csv"
NOON_CSV, NOON_JSON = "noon_anharmonic-oracle.csv", "noon_anharmonic-oracle.json"

# (workload, check, perturbation): each perturbation must make its check fail
PERTURBATIONS = [
    ("figure-n100", "harmonic_lines", _add("spectrum_harmonic.csv", "weight00", 1, 1e-8)),
    ("figure-n100", "harmonic_lines", _conjugate("spectrum_harmonic.csv", "weightN0")),
    ("figure-n100", "rpm_density", _scale(RPM, "rho00", 1 + 1e-6)),
    ("figure-n100", "rpm_density", _conjugate(RPM, "rhoN0")),
    ("figure-n100", "compare", _set(["spectrum_compare.json", "compare", "linf_rho00"], 2e-9)),
    ("figure-n100", "compare", _scale(CMP, "rho00_rpm", 1 + 1e-6)),
    ("figure-n100", "compare", _conjugate(CMP, "rhoN0_oracle")),
    ("figure-n100", "dynamics", _conjugate(DYN, "transition_im")),
    ("figure-n100", "dynamics", _add(DYN, "return_re", 7, 1e-9)),
    ("figure-n100", "dynamics", _conjugate(DYN, "harmonic_transition_im")),
    ("figure-n100", "dynamics", _set([FT, "times", "anharmonic-oracle"], lambda t: t + 0.03)),
    ("figure-n100", "dynamics", _set([FT, "times", "harmonic"], lambda t: t - 0.03)),
    ("figure-n100", "validate", _fail_one_validation_check),
    ("figure-n100", "validate", _drop_validation_check),
    ("noon-n100", "histogram", _add(NOON_CSV, "mass", 0, 1e-8)),
    ("noon-n100", "histogram", _add(NOON_CSV, "mass", 0, -1.0)),
    ("noon-n100", "window", _set([NOON_JSON, "summary", "n_samples"], lambda n: n + 1)),
    ("noon-n100", "window", _set([NOON_JSON, "summary", "dt"], lambda dt: dt * (1 + 1e-6))),
    ("noon-n100", "score", _set([NOON_JSON, "summary", "max_score"], lambda s: s - 1e-8)),
    ("noon-n100", "score", _set([NOON_JSON, "summary", "max_score"], 0.49)),
    ("noon-n100", "score", _shift_argmax),
    ("noon-n100", "bins", _flip_bins),
    ("oracle-n3000", "compare", _set(["spectrum_compare.json", "compare", "linf_rhoN0"], 1.0)),
    ("oracle-n3000", "compare", _scale(CMP, "rho00_rpm", 1 + 1e-6)),
    ("oracle-n3000", "compare", _conjugate(CMP, "rhoN0_rpm")),
    ("oracle-n3000", "dynamics", _conjugate(DYN, "transition_im")),
    ("oracle-n3000", "dynamics", _add(DYN, "return_im", 3, 1e-9)),
    ("oracle-n3000", "dynamics", _set([FT, "times", "anharmonic-oracle"], lambda t: t + 0.2)),
    ("rpm-n10000", "positive", _add(RPM, "rho00", 5, -1e-300 - 1.0)),
    ("rpm-n10000", "density", _scale(RPM, "rho00", 1 + 1e-6)),
    ("rpm-n10000", "density", _conjugate(RPM, "rhoN0")),
]


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_checks_pass_on_program_output(workload, outputs):
    assert reference.run_checks(workload, outputs(workload),
                                workloads.SPEC["tiny"], seed=11) == []


@pytest.mark.parametrize("workload,check,perturb", PERTURBATIONS,
                         ids=[f"{w}-{c}-{i}" for i, (w, c, _) in enumerate(PERTURBATIONS)])
def test_each_check_fails_on_perturbed_output(workload, check, perturb, outputs):
    data = outputs(workload)
    perturb(data)
    rng = np.random.default_rng(11)
    assert reference.CHECKS[workload][check](data, workloads.SPEC["tiny"], rng)


def test_every_check_has_a_perturbation():
    covered = {(w, c) for w, c, _ in PERTURBATIONS}
    assert covered == {(w, c) for w, checks in reference.CHECKS.items() for c in checks}


def test_every_workload_has_a_timed_calibration_loop():
    assert set(workloads.CALIBRATION) == set(workloads.NAMES)
    for kind in set(workloads.CALIBRATION.values()):
        assert calibration.REFERENCE_S[kind] > 0
        wall, cpu = calibration.time_loop(kind)
        assert wall > 0 and cpu > 0
