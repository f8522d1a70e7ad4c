"""Unit tests for the shared spectral-line types and synthesis helpers."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cavity_rpm
from cavity_rpm.core import (
    MERGE_RTOL,
    AmplitudeSeries,
    LineSpectrum,
    ModelParams,
    amplitude_from_lines,
    edge_lines,
    merge_degenerate_lines,
    resolvent_from_lines,
    smoothed_density,
)


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(n_photons=0)
    with pytest.raises(ValueError):
        ModelParams(n_photons=2.5)
    with pytest.raises(ValueError):
        ModelParams(n_photons=4, sigma=2)
    with pytest.raises(ValueError):
        ModelParams(n_photons=4, j_tun=-0.1)
    for field in ("n_photons", "omega0", "g", "j_tun", "delta"):
        for bad in (math.nan, math.inf, -math.inf, "x", None):
            with pytest.raises(ValueError, match=field):
                ModelParams(**{"n_photons": 4, field: bad})
    # an integral float, as JSON may give it, is stored as an int
    assert type(ModelParams(n_photons=4.0).n_photons) is int


def test_model_params_frozen():
    p = ModelParams(n_photons=4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.g = 1.0


def test_merge_clusters_near_degenerate_levels():
    merged_e, (w,) = merge_degenerate_lines(
        [1.0, 1.0 + 1e-12, 2.0], [[0.2, 0.3, 0.5]]
    )
    assert merged_e.shape == (2,)
    assert merged_e[0] == pytest.approx(1.0, abs=1e-11)
    assert merged_e[1] == 2.0
    np.testing.assert_allclose(w, [0.5, 0.5])


def test_merge_keeps_resolved_levels_apart():
    merged_e, (w,) = merge_degenerate_lines([0.0, 1e-6], [[0.4, 0.6]])
    assert merged_e.shape == (2,)
    np.testing.assert_allclose(w, [0.4, 0.6])


def test_merge_shares_clustering_across_weight_sets():
    # signed weights may cancel inside a cluster while the diagonal set adds
    merged_e, (w00, w10) = merge_degenerate_lines(
        [3.0, 3.0, 5.0], [[0.25, 0.25, 0.5], [0.25, -0.25, 0.5]]
    )
    assert merged_e.shape == (2,)
    np.testing.assert_allclose(w00, [0.5, 0.5])
    np.testing.assert_allclose(w10, [0.0, 0.5])


def test_merge_sorts_unordered_input():
    merged_e, (w,) = merge_degenerate_lines([2.0, -1.0, 0.5], [[1.0, 2.0, 3.0]])
    np.testing.assert_allclose(merged_e, [-1.0, 0.5, 2.0])
    np.testing.assert_allclose(w, [2.0, 3.0, 1.0])


def test_merge_rejects_mismatched_weights():
    with pytest.raises(ValueError):
        merge_degenerate_lines([1.0, 2.0], [[1.0]])
    with pytest.raises(ValueError):
        merge_degenerate_lines([], [[]])


def _merge_level_by_level(energies, weight_sets, rtol=MERGE_RTOL):
    """Reference: the clustering as one loop over the sorted levels."""
    e = np.asarray(energies, dtype=float)
    sets = [np.asarray(w) for w in weight_sets]
    order = np.argsort(e, kind="stable")
    e = e[order]
    sets = [w[order] for w in sets]
    boundaries = [0]
    for i in range(1, e.size):
        if e[i] - e[i - 1] > rtol * max(1.0, abs(e[i])):
            boundaries.append(i)
    boundaries.append(e.size)
    merged_e = np.empty(len(boundaries) - 1)
    merged_sets = [np.empty(len(boundaries) - 1, dtype=w.dtype) for w in sets]
    for j in range(len(boundaries) - 1):
        lo, hi = boundaries[j], boundaries[j + 1]
        merged_e[j] = e[lo:hi].mean()
        for w, out in zip(sets, merged_sets):
            out[j] = w[lo:hi].sum()
    return merged_e, merged_sets


def _assert_same_bits(got, want):
    assert got[0].tobytes() == want[0].tobytes()
    for a, b in zip(got[1], want[1], strict=True):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@given(st.lists(st.tuples(
    st.sampled_from([-3.0, -0.0, 0.0, 1.0, 2.5, 1e9]),
    st.sampled_from([0.0, 1e-13, -1e-13, 1e-10, 1e-8, 1.0]),
    st.sampled_from([-0.0, 0.0, 0.5, -0.25, 1e-300]),
    st.sampled_from([-0.0, 0.0, 1.0, -2.0]),
), min_size=1, max_size=40))
@example([(-0.0, 0.0, -0.0, -0.0), (1.0, 0.0, 0.5, 1.0)])
def test_merge_is_bit_identical_to_the_level_loop(levels):
    # base alone where the offset is 0, so that -0.0 stays a level
    energies = np.array([base + offset if offset else base for base, offset, _, _ in levels])
    real = np.array([w for _, _, w, _ in levels])
    cross = real * (1 - 2j) + np.array([v for *_, v in levels]) * 1j
    counts = np.array([int(v) for *_, v in levels])
    sets = [real, cross, counts]
    _assert_same_bits(merge_degenerate_lines(energies, sets), _merge_level_by_level(energies, sets))


def test_merge_of_one_cluster_is_bit_identical_to_the_level_loop():
    # J = 0, g = 0: every level of the sector forms one cluster
    rng = np.random.default_rng(3)
    energies = np.full(51, 50.0) + rng.uniform(-1e-12, 1e-12, 51)
    sets = [rng.uniform(0, 1, 51), rng.uniform(-1, 1, 51) + 0j]
    got = merge_degenerate_lines(energies, sets)
    assert got[0].size == 1
    _assert_same_bits(got, _merge_level_by_level(energies, sets))


_BROADENING_PROBE = """
import numpy as np
from cavity_rpm.core import LineSpectrum, edge_lines, smoothed_density

rng = np.random.default_rng(5)
eps = 0.01
# line counts giving blocks of 648, 64 and 4 rows; point counts one past a
# multiple of the block, and others
for points, lines in ((1, 3), (17, 5), (1297, 101), (2000, 101), (1985, 1001),
                      (2001, 1001), (333, 10001), (334, 10001)):
    energies = np.sort(rng.uniform(-50, 50, lines)) + 1e-3 * np.arange(lines)
    halves = []
    for half in (energies[0::2], energies[1::2]):
        weights = rng.uniform(0, 1, half.size)
        halves.append(LineSpectrum(half, weights / weights.sum()))
    grid = np.linspace(-60, 60, points)
    table, w00, wn0 = edge_lines(*halves)
    lorentz = eps / (eps**2 + (grid[:, None] - table[None, :]) ** 2)
    # the cross density as the complex product that smoothed_density forms
    direct = (lorentz @ w00 / np.pi, np.real(lorentz @ wn0.astype(complex) / np.pi))
    for got, want in zip(smoothed_density(*halves, grid, eps), direct):
        assert got.dtype == want.dtype == float, (points, lines)
        assert got.tobytes() == want.tobytes(), (points, lines)
print("identical")
"""


def test_blocked_broadening_is_bit_identical_to_one_product():
    # one BLAS thread: with several, OpenBLAS splits a large product between
    # threads at row boundaries of its own, so even the one product's last
    # bits depend on the thread count
    src = str(Path(cavity_rpm.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    probe = subprocess.run([sys.executable, "-c", _BROADENING_PROBE], env=env,
                           capture_output=True, text=True, timeout=120)
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "identical"


def test_line_spectrum_invariants():
    with pytest.raises(ValueError, match="sum to 1"):
        LineSpectrum(energies=[0.0, 1.0], weights=[0.5, 0.6])
    with pytest.raises(ValueError, match="non-negative"):
        LineSpectrum(energies=[0.0, 1.0], weights=[-0.5, 1.5])
    with pytest.raises(ValueError, match="ascending"):
        LineSpectrum(energies=[1.0, 1.0], weights=[0.5, 0.5])
    with pytest.raises(ValueError, match="at least one"):
        LineSpectrum(energies=[], weights=[])
    spec = LineSpectrum(energies=[0.0, 1.0], weights=[0.25, 0.75])
    assert len(spec) == 2
    assert spec.weights.dtype == float


def test_line_spectrum_arrays_are_readonly():
    spec = LineSpectrum(energies=[0.0, 1.0], weights=[0.5, 0.5])
    with pytest.raises(ValueError):
        spec.energies[0] = 7.0


def test_edge_lines_halve_the_weights_and_merge_across_halves():
    sym = LineSpectrum(energies=[-1.0, 2.0], weights=[0.25, 0.75])
    anti = LineSpectrum(energies=[0.5, 2.0 + 1e-12], weights=[0.5, 0.5])
    energies, w00, wn0 = edge_lines(sym, anti)
    np.testing.assert_allclose(energies, [-1.0, 0.5, 2.0], rtol=0, atol=1e-11)
    assert w00.tolist() == [0.125, 0.25, 0.625]
    # the lines at 2 and 2 + 1e-12 merge: +0.75/2 and -0.5/2
    assert wn0.tolist() == [0.125, -0.25, 0.125]


def test_smoothed_density_single_lorentzian():
    spec = LineSpectrum(energies=[2.0], weights=[1.0])
    eps = 0.03
    grid = np.linspace(-40.0, 44.0, 200001)
    # the same line in both halves: the edge state alone, no cross density
    rho, rhon = smoothed_density(spec, spec, grid, eps)
    assert rho[np.argmin(np.abs(grid - 2.0))] == pytest.approx(1.0 / (np.pi * eps))
    assert np.all(rhon == 0)
    # the tails integrate to nearly unit mass
    assert np.trapezoid(rho, grid) == pytest.approx(1.0, abs=1e-3)
    # one line per half at different energies: rhoN0 changes sign between them
    _, rhon = smoothed_density(spec, LineSpectrum([-2.0], [1.0]), grid, eps)
    assert rhon[np.argmin(np.abs(grid - 2.0))] > 0 > rhon[np.argmin(np.abs(grid + 2.0))]
    for bad in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="epsilon"):
            smoothed_density(spec, spec, grid, bad)
    with pytest.raises(ValueError):
        smoothed_density(spec, spec, [], eps)


def test_amplitude_from_lines_matches_cosine():
    spec = LineSpectrum(energies=[-0.8, 0.8], weights=[0.5, 0.5])
    t = np.linspace(0.0, 20.0, 501)
    series = amplitude_from_lines(spec, t)
    np.testing.assert_allclose(series.values, np.cos(0.8 * t), atol=1e-12)


@st.composite
def _lines_and_grid(draw):
    """A random line spectrum and a uniform time grid."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centre = draw(st.floats(-200.0, 200.0))
    spread = draw(st.floats(1e-3, 100.0))
    energies = np.unique(centre + spread * rng.uniform(-1.0, 1.0, draw(st.integers(1, 60))))
    weights = rng.uniform(0.0, 1.0, energies.size) + 1e-3
    weights /= np.sum(weights)
    n = draw(st.one_of(st.sampled_from([1, 2, 4, 9, 256, 1024]), st.integers(1, 3000)))
    if draw(st.booleans()):
        start = draw(st.floats(-500.0, 500.0))
        times = np.linspace(start, start + draw(st.floats(0.0, 500.0)), n)
    else:
        times = np.arange(n) * draw(st.floats(1e-3, 1.0))
    return energies, weights, times


@settings(max_examples=300, deadline=None)
@given(_lines_and_grid())
def test_amplitude_from_lines_matches_direct_sum(case):
    """The block synthesis agrees with the direct sum to its rounding scale,
    for |E t| up to about 3e5."""
    energies, weights, times = case
    spec = LineSpectrum(energies=energies, weights=weights)
    got = amplitude_from_lines(spec, times).values
    direct = np.exp(-1j * np.outer(times, energies)) @ weights
    # phase rounding grows with |E t|; the L-term sums add a few eps
    scale = np.max(np.abs(energies)) * np.max(np.abs(times)) + energies.size
    assert np.max(np.abs(got - direct)) <= 8 * np.finfo(float).eps * scale


def test_amplitude_from_lines_carries_the_common_phase_exactly():
    """For one line the synthesis is exp(-i E t) with E t carried exactly: the
    error stays at a few eps where rounding E t alone would cost 1e-11."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.prec = 120
    energy = 123.456789
    spec = LineSpectrum(energies=[energy], weights=[1.0])
    t = np.arange(20001) * 0.0999
    got = amplitude_from_lines(spec, t).values[::500]
    exact = [complex(mpmath.expj(-mpmath.mpf(energy) * mpmath.mpf(x))) for x in t[::500]]
    assert np.max(np.abs(got - exact)) <= 4 * np.finfo(float).eps


def test_amplitude_from_lines_rejects_grid_uniform_only_to_1e_9():
    spec = LineSpectrum(energies=[-0.8, 0.8], weights=[0.5, 0.5])
    t = np.linspace(0.0, 20.0, 501)
    t[250] += 1e-12
    with pytest.raises(ValueError, match="uniform"):
        amplitude_from_lines(spec, t)
    with pytest.raises(ValueError):
        amplitude_from_lines(spec, [])


def test_amplitude_series_invariants():
    with pytest.raises(ValueError, match="uniform"):
        AmplitudeSeries(times=[0.0, 1.0, 3.0], values=[1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="modulus"):
        AmplitudeSeries(times=[0.0, 1.0], values=[1.0, 1.5])
    with pytest.raises(ValueError):
        AmplitudeSeries(times=[], values=[])


def test_resolvent_from_lines_simple_pole():
    spec = LineSpectrum(energies=[1.5], weights=[1.0])
    sample = resolvent_from_lines(spec, 2.0 + 1.0j)
    assert sample == pytest.approx(1.0 / (0.5 + 1.0j))
    # Herglotz: below the real axis the diagonal element has Im >= 0
    below = resolvent_from_lines(spec, 0.3 - 0.2j)
    assert below.imag > 0


def test_time_average_recovers_summed_square_weights():
    """Long-time mean of |return|^2 equals sum of squared weights (Parseval)."""
    rng = np.random.default_rng(3)
    energies = np.sort(rng.uniform(-4.0, 4.0, 9))
    w = rng.uniform(0.1, 1.0, 9)
    w /= w.sum()
    spec = LineSpectrum(energies=energies, weights=w)
    t = np.arange(0.0, 10000.0, 0.05)
    series = amplitude_from_lines(spec, t)
    mean_sq = float(np.mean(np.abs(series.values) ** 2))
    assert mean_sq == pytest.approx(float(np.sum(w**2)), abs=1e-3)
