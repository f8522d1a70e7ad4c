"""Independent references and the correctness checks of every workload.

Nothing here calls ``cavity_rpm``.  The sector matrix is rebuilt from its
defining formulas, resolvent elements come from ``scipy.linalg.solve_banded``
on ``z - H``, amplitudes from a dense ``scipy.linalg.expm`` (N=100) or the
sparse ``scipy.sparse.linalg.expm_multiply`` (N=3000), and the harmonic
pair from ``cos^N(Jt)``, ``sin^N(Jt)`` and binomial weights.  Other checks
test properties the method must have (normalized histogram mass,
``rho00 >= 0``, one output per configuration).

A check is a function ``check(data, spec, rng) -> str | None`` that returns
a failure message, or None when the output passes.  ``data`` holds the
parsed output files of one pass (see :func:`load`); ``spec`` the workload's
sizes (``workloads.SPEC[size]``); ``rng`` draws the seeded sample of grid points
and times at which a reference is evaluated.  Only the seed drives that
sampling; the commands themselves are fixed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from workloads import VALIDATION_CHECKS

G, J, OMEGA0, EPSILON = 1.2, 0.8, 1.0, 0.01
N_SAMPLES = 48  # seeded grid points or times per check
TINY = 1e-290  # below this a reference cross element is not compared


# ---------------------------------------------------------------- references

def sector(n: int, g: float = G, j: float = J, omega0: float = OMEGA0):
    """Diagonal and off-diagonal of the N-photon sector matrix, less omega0 N.

    ``diag_k = omega0 N + 2 g (sqrt(N-k) + sqrt(k))`` and
    ``offdiag_k = -J sqrt((k+1)(N-k))``; the constant ``omega0 N`` is left
    out here and put back as a phase or an energy shift by the callers.
    """
    k = np.arange(n + 1, dtype=float)
    diag = 2.0 * g * (np.sqrt(n - k) + np.sqrt(k))
    kk = np.arange(n, dtype=float)
    return diag, -j * np.sqrt((kk + 1.0) * (n - kk))


def resolvent(n: int, energies, epsilon: float = EPSILON):
    """``<N,0|(z-H)^-1|N,0>`` and ``<0,N|(z-H)^-1|N,0>`` at ``z = E - i eps``.

    Each point is one banded LU solve of ``(z - H) x = e_0``.
    """
    diag, off = sector(n)
    a = np.empty(len(energies), dtype=complex)
    b = np.empty(len(energies), dtype=complex)
    rhs = np.zeros(n + 1, dtype=complex)
    rhs[0] = 1.0
    for i, energy in enumerate(energies):
        z = complex(energy - OMEGA0 * n, -epsilon)
        ab = np.zeros((3, n + 1), dtype=complex)
        ab[0, 1:] = -off
        ab[1] = z - diag
        ab[2, :-1] = -off
        x = scipy.linalg.solve_banded((1, 1), ab, rhs)
        a[i], b[i] = x[0], x[n]
    return a, b


def dense(n: int):
    """The sector matrix, less omega0 N, as a dense array."""
    diag, off = sector(n)
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def amplitudes_dense(n: int, times):
    """Return and transition amplitudes at ``times`` from dense ``expm``."""
    h = dense(n)
    ret = np.empty(len(times), dtype=complex)
    tra = np.empty(len(times), dtype=complex)
    for i, t in enumerate(times):
        column = scipy.linalg.expm(-1j * t * h)[:, 0] * np.exp(-1j * OMEGA0 * n * t)
        ret[i], tra[i] = column[0], column[n]
    return ret, tra


def amplitudes_series(n: int, dt: float, steps: int):
    """Amplitudes at ``k dt``, k = 0..steps, by repeated ``expm(-i H dt)``."""
    step = scipy.linalg.expm(-1j * dt * dense(n))
    states = np.empty((steps + 1, n + 1), dtype=complex)
    state = np.zeros(n + 1, dtype=complex)
    state[0] = 1.0
    for k in range(steps + 1):
        states[k] = state
        state = step @ state
    phase = np.exp(-1j * OMEGA0 * n * dt * np.arange(steps + 1))
    return states[:, 0] * phase, states[:, n] * phase


def amplitudes_sparse(n: int, dt: float, steps: int):
    """Amplitudes at ``k dt``, k = 0..steps, from sparse ``expm_multiply``."""
    diag, off = sector(n)
    h = scipy.sparse.diags([off, diag, off], [-1, 0, 1], format="csr")
    start = np.zeros(n + 1, dtype=complex)
    start[0] = 1.0
    states = scipy.sparse.linalg.expm_multiply(
        -1j * h, start, start=0.0, stop=steps * dt, num=steps + 1, endpoint=True)
    phase = np.exp(-1j * OMEGA0 * n * dt * np.arange(steps + 1))
    return states[:, 0] * phase, states[:, n] * phase


def harmonic_amplitudes(n: int, j: float, omega0: float, times):
    """``cos^N(Jt)`` and ``(-i)^N sin^N(Jt)``, with the phase ``exp(-i omega0 N t)``."""
    t = np.asarray(times, dtype=float)
    phase = np.exp(-1j * omega0 * n * t)
    return phase * np.cos(j * t) ** n, phase * (-1j) ** n * np.sin(j * t) ** n


def harmonic_lines(n: int, j: float, omega0: float):
    """Ascending harmonic levels with binomial diagonal and cross weights."""
    k = np.arange(n + 1)
    weights = np.array([math.comb(n, int(i)) for i in k], dtype=float) / 2.0**n
    energies = omega0 * n + j * (n - 2.0 * k)
    order = np.argsort(energies)
    return energies[order], weights[order], (weights * (-1.0) ** k)[order]


TRANSFER_THRESHOLD = 0.5  # the CLI's default transfer_threshold


def first_peak(values, threshold: float = TRANSFER_THRESHOLD):
    """Index of the earliest interior local maximum of ``|values|`` that
    reaches ``threshold`` of the largest, or None."""
    m = np.abs(values)
    hits = np.nonzero((m[1:-1] >= m[:-2]) & (m[1:-1] >= m[2:])
                      & (m[1:-1] >= threshold * m.max()))[0]
    return int(hits[0]) + 1 if hits.size else None


# ---------------------------------------------------------------- loading

def _csv(path: Path) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    columns = np.array(rows[1:], dtype=float).reshape(len(rows) - 1, len(rows[0]))
    return {name: columns[:, i] for i, name in enumerate(rows[0])}


def _json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def load(workload: str, out: Path) -> dict:
    """Parse the files one pass of ``workload`` wrote into ``out``."""
    files = {
        "figure-n100": ["spectrum_harmonic.csv", "spectrum_anharmonic-rpm.csv",
                        "spectrum_compare.csv", "spectrum_compare.json",
                        "dynamics_anharmonic-oracle.csv", "first_transfer.json",
                        "validation_report.json"],
        "noon-n100": ["noon_anharmonic-oracle.csv", "noon_anharmonic-oracle.json"],
        "oracle-n3000": ["spectrum_compare.csv", "spectrum_compare.json",
                         "dynamics_anharmonic-oracle.csv", "first_transfer.json"],
        "rpm-n10000": ["spectrum_anharmonic-rpm.csv"],
    }[workload]
    return {name: (_csv if name.endswith(".csv") else _json)(out / name) for name in files}


# ---------------------------------------------------------------- checks

def _sample(rng, size: int, count: int = N_SAMPLES):
    return np.sort(rng.choice(size, size=min(count, size), replace=False))


def _density_mismatch(n, energy, rho00, rhon0, rng, rtol, label, atol=0.0):
    """Seeded grid points where ``rho`` differs from ``Im`` of the banded
    reference by more than ``atol`` plus ``rtol`` of the reference element's
    modulus (the relative error of a resolvent element, not of its imaginary
    part, which crosses zero)."""
    idx = _sample(rng, len(energy))
    a, b = resolvent(n, energy[idx])
    for name, got, ref in (("rho00", rho00[idx], a), ("rhoN0", rhon0[idx], b)):
        keep = np.abs(ref) > TINY
        err = (np.abs(got[keep] - ref[keep].imag / np.pi)
               / (rtol * np.abs(ref[keep]) / np.pi + atol))
        if err.size and not err.max() <= 1.0:
            worst = int(np.argmax(err))
            return (f"{label} {name} off the banded reference by {err[worst]:.3g} times "
                    f"the tolerance (rel. {rtol:g}, abs. {atol:g}) "
                    f"at E={float(energy[idx][keep][worst])!r}")
    return None


def _uniform_grid(energy, points, label):
    if energy.size != points or not np.all(np.diff(energy) > 0):
        return f"{label}: expected an ascending grid of {points} points, got {energy.size}"
    step = (energy[-1] - energy[0]) / (points - 1)
    if np.max(np.abs(np.diff(energy) - step)) > 1e-9 * step:
        return f"{label}: energy grid is not uniform"
    return None


def _amplitude_mismatch(table, prefix, ret, tra, tol, label):
    for name, ref in (("return", ret), ("transition", tra)):
        got = table[f"{prefix}{name}_re"] + 1j * table[f"{prefix}{name}_im"]
        err = max(float(np.max(np.abs(got - ref))),
                  float(np.max(np.abs(table[f"{prefix}{name}_abs"] - np.abs(ref)))))
        if not err <= tol:
            return f"{label} {prefix}{name} off the reference by {err:.3e} (tolerance {tol:g})"
    return None


def _time_grid(table, dt, t_max, label):
    steps = math.floor(t_max / dt)
    if table["t"].size != steps + 1:
        return f"{label}: expected {steps + 1} samples, got {table['t'].size}"
    if np.max(np.abs(table["t"] - dt * np.arange(steps + 1))) > 1e-9 * max(1.0, t_max):
        return f"{label}: time column is not k dt"
    return None


def _first_transfer(times_json, model, t, ref_tra, dt, label):
    if times_json["threshold"] != TRANSFER_THRESHOLD:
        return f"{label}: first-transfer threshold {times_json['threshold']!r}"
    got = times_json["times"].get(model)
    peak = first_peak(ref_tra)
    if got is None or peak is None or not abs(got - t[peak]) <= dt * (1 + 1e-9):
        return (f"{label}: first transfer of {model} at {got!r}, the reference's "
                f"first local maximum of |transition| is at "
                f"{None if peak is None else t[peak]!r}")
    return None


def check_harmonic_lines(data, spec, rng):
    table = data["spectrum_harmonic.csv"]
    energies, w00, wn0 = harmonic_lines(2, 1.0, 0.0)
    for name, ref in (("energy", energies), ("weight00", w00), ("weightN0", wn0)):
        if table[name].shape != ref.shape or np.max(np.abs(table[name] - ref)) > 1e-14:
            return f"harmonic N=2 {name} is {table[name].tolist()}, expected {ref.tolist()}"
    return None


def check_figure_rpm_density(data, spec, rng):
    table = data["spectrum_anharmonic-rpm.csv"]
    return (_uniform_grid(table["energy"], 2000, "spectrum anharmonic-rpm")
            or _density_mismatch(spec["figure_n"], table["energy"], table["rho00"],
                                 table["rhoN0"], rng, 1e-9, "spectrum anharmonic-rpm"))


def _compare_checks(data, n, rng, label):
    table, sidecar = data["spectrum_compare.csv"], data["spectrum_compare.json"]
    report = sidecar["compare"]
    if not (report["linf_rho00"] < 1e-9 and report["linf_rhoN0"] < 1e-9):
        return f"{label}: --compare residuals {report} are not below 1e-9"
    for name in ("rho00", "rhoN0"):
        linf = float(np.max(np.abs(table[f"{name}_rpm"] - table[f"{name}_oracle"])))
        if linf != report[f"linf_{name}"]:
            return f"{label}: linf_{name} {report[f'linf_{name}']!r} is not {linf!r} of the columns"
    return (_uniform_grid(table["energy"], 2000, label)
            or _density_mismatch(n, table["energy"], table["rho00_rpm"],
                                 table["rhoN0_rpm"], rng, 1e-9, f"{label} recursion")
            # eigenvector products carry absolute, not relative, accuracy
            or _density_mismatch(n, table["energy"], table["rho00_oracle"],
                                 table["rhoN0_oracle"], rng, 0.0, f"{label} oracle", 1e-9))


def check_figure_compare(data, spec, rng):
    return _compare_checks(data, spec["figure_n"], rng, "spectrum --compare")


def check_figure_dynamics(data, spec, rng):
    n, dt = spec["figure_n"], spec["figure_dt"]
    table = data["dynamics_anharmonic-oracle.csv"]
    problem = _time_grid(table, dt, 10.0, "dynamics")
    if problem:
        return problem
    ret, tra = amplitudes_series(n, dt, table["t"].size - 1)
    h_ret, h_tra = harmonic_amplitudes(n, J, OMEGA0, table["t"])
    times = data["first_transfer.json"]
    return (_amplitude_mismatch(table, "", ret, tra, 1e-10, "dynamics")
            or _amplitude_mismatch(table, "harmonic_", h_ret, h_tra, 1e-10, "dynamics")
            or _first_transfer(times, "anharmonic-oracle", table["t"], tra, dt, "dynamics")
            or _first_transfer(times, "harmonic", table["t"], h_tra, dt, "dynamics"))


def check_validate(data, spec, rng):
    report = data["validation_report.json"]
    names = [c["name"] for c in report["checks"]]
    failed = [c["name"] for c in report["checks"] if c["passed"] is not True]
    if report["passed"] is not True or failed or sorted(names) != sorted(VALIDATION_CHECKS):
        return f"validate: checks {names}, failed {failed}, passed={report['passed']!r}"
    return None


def check_noon_histogram(data, spec, rng):
    table = data["noon_anharmonic-oracle.csv"]
    mass = table["mass"]
    if mass.size != 50 * 50 or np.any(mass < 0) or abs(float(mass.sum()) - 1.0) > 1e-12:
        return (f"noon histogram: {mass.size} bins, min mass {mass.min()!r}, "
                f"total {float(mass.sum())!r}; expected 2500 non-negative bins summing to 1")
    return None


def _noon_summary(data):
    summary = data["noon_anharmonic-oracle.json"]["summary"]
    return summary, summary["dt"], int(summary["n_samples"])


def check_noon_window(data, spec, rng):
    summary, dt, samples = _noon_summary(data)
    t_max = spec["noon_tmax"]
    energies = scipy.linalg.eigvalsh(dense(100))
    dt_ref = 2.0 * math.pi / (20.0 * (energies[-1] - energies[0]))
    if summary["t_max"] != t_max or abs(dt - dt_ref) > 1e-9 * dt_ref:
        return f"noon window t_max={summary['t_max']!r} dt={dt!r}, expected {t_max} and {dt_ref!r}"
    if samples != math.floor(t_max / dt) + 1:
        return f"noon n_samples {samples}, expected floor(t_max/dt)+1 = {math.floor(t_max / dt) + 1}"
    return None


def check_noon_score(data, spec, rng):
    summary, dt, samples = _noon_summary(data)
    best, t_best = summary["max_score"], summary["argmax_time"]
    if not best >= 0.5:
        return f"noon max_score {best!r} is below 0.5, the score of the initial state"
    k_best = round(t_best / dt)
    if abs(t_best - k_best * dt) > 1e-9 * max(1.0, t_best) or not 0 <= k_best < samples:
        return f"noon argmax_time {t_best!r} is not a sample time"
    ks = np.append(_sample(rng, samples), k_best)
    ret, tra = amplitudes_dense(100, ks * dt)
    scores = (np.abs(ret) + np.abs(tra)) ** 2 / 2.0
    if abs(scores[-1] - best) > 1e-9:
        return f"noon max_score {best!r}, expm gives {scores[-1]!r} at t={t_best!r}"
    if np.max(scores) > best + 1e-9:
        worst = int(np.argmax(scores))
        return f"noon: expm scores {scores[worst]!r} at t={ks[worst] * dt!r}, above max_score {best!r}"
    return None


def check_noon_bins(data, spec, rng):
    """Every seeded sample lands in a bin that holds at least its own mass."""
    summary, dt, samples = _noon_summary(data)
    mass = data["noon_anharmonic-oracle.csv"]["mass"].reshape(50, 50)
    ks = _sample(rng, samples)
    ret, tra = amplitudes_dense(100, ks * dt)
    for c0, cn in zip(np.abs(ret), np.abs(tra)):
        coords = np.minimum(np.array([c0, cn]), 1.0) * 50
        if np.any(np.abs(coords - np.round(coords)) < 1e-9):
            continue  # on a bin edge, either bin is right
        i, j = np.minimum(coords.astype(int), 49)
        if mass[i, j] < (1.0 - 1e-9) / samples:
            return f"noon: sample (|c0|, |cN|) = ({c0!r}, {cn!r}) falls in bin ({i}, {j}) of mass {mass[i, j]!r}"
    return None


def check_oracle_compare(data, spec, rng):
    return _compare_checks(data, spec["oracle_n"], rng, "N=3000 spectrum --compare")


def check_oracle_dynamics(data, spec, rng):
    n, dt = spec["oracle_n"], 0.01
    table = data["dynamics_anharmonic-oracle.csv"]
    problem = _time_grid(table, dt, 10.0, "N=3000 dynamics")
    if problem:
        return problem
    ret, tra = amplitudes_sparse(n, dt, table["t"].size - 1)
    return (_amplitude_mismatch(table, "", ret, tra, 1e-10, "N=3000 dynamics")
            or _first_transfer(data["first_transfer.json"], "anharmonic-oracle",
                               table["t"], tra, dt, "N=3000 dynamics"))


def check_rpm_positive(data, spec, rng):
    table = data["spectrum_anharmonic-rpm.csv"]
    if not np.all(table["rho00"] >= 0):
        return f"rho00 is negative at {int(np.sum(table['rho00'] < 0))} grid points"
    return _uniform_grid(table["energy"], spec["rpm_points"], "N=10^4 spectrum")


def check_rpm_density(data, spec, rng):
    table = data["spectrum_anharmonic-rpm.csv"]
    return _density_mismatch(spec["rpm_n"], table["energy"], table["rho00"],
                             table["rhoN0"], rng, 1e-9, "N=10^4 spectrum")


CHECKS = {
    "figure-n100": {
        "harmonic_lines": check_harmonic_lines,
        "rpm_density": check_figure_rpm_density,
        "compare": check_figure_compare,
        "dynamics": check_figure_dynamics,
        "validate": check_validate,
    },
    "noon-n100": {
        "histogram": check_noon_histogram,
        "window": check_noon_window,
        "score": check_noon_score,
        "bins": check_noon_bins,
    },
    "oracle-n3000": {
        "compare": check_oracle_compare,
        "dynamics": check_oracle_dynamics,
    },
    "rpm-n10000": {
        "positive": check_rpm_positive,
        "density": check_rpm_density,
    },
}


def run_checks(workload: str, data: dict, spec: dict, seed: int) -> list[str]:
    """Failure messages of every check of ``workload``; empty when all pass."""
    failures = []
    for index, (name, check) in enumerate(CHECKS[workload].items()):
        problem = check(data, spec, np.random.default_rng([seed, index]))
        if problem:
            failures.append(f"{name}: {problem}")
    return failures
