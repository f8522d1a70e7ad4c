"""Unit tests for the shared spectral-line types, the edge-line table, the
dense oracle's level clustering and broadening."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import cavity_rpm
from cavity_rpm.core import (
    AmplitudeSeries,
    LineSpectrum,
    ModelParams,
    _merge_equal_levels,
    edge_lines,
    smoothed_density,
)
from cavity_rpm.dynamics import evolve
from cavity_rpm.effective import MERGE_RTOL, _merge_close_levels


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(n_photons=0)
    with pytest.raises(ValueError):
        ModelParams(n_photons=2.5)
    with pytest.raises(ValueError):
        ModelParams(n_photons=4, sigma=2)
    with pytest.raises(ValueError):
        ModelParams(n_photons=4, j_tun=-0.1)
    for field in ("n_photons", "omega0", "g", "j_tun"):
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
    merged_e, w, _ = _merge_close_levels(
        np.array([1.0, 1.0 + 1e-12, 2.0]), np.array([0.2, 0.3, 0.5]), np.zeros(3))
    assert merged_e.shape == (2,)
    assert merged_e[0] == pytest.approx(1.0, abs=1e-11)
    assert merged_e[1] == 2.0
    np.testing.assert_allclose(w, [0.5, 0.5])


def test_merge_keeps_resolved_levels_apart():
    merged_e, w, _ = _merge_close_levels(np.array([0.0, 1e-6]), np.array([0.4, 0.6]),
                                         np.zeros(2))
    assert merged_e.shape == (2,)
    np.testing.assert_allclose(w, [0.4, 0.6])


def test_merge_shares_clustering_across_weight_sets():
    # signed weights may cancel inside a cluster while the diagonal set adds
    merged_e, w00, wn0 = _merge_close_levels(
        np.array([3.0, 3.0, 5.0]), np.array([0.25, 0.25, 0.5]), np.array([0.25, -0.25, 0.5]))
    assert merged_e.shape == (2,)
    np.testing.assert_allclose(w00, [0.5, 0.5])
    np.testing.assert_allclose(wn0, [0.0, 0.5])


def _merge_level_by_level(energies, w00, wn0, rtol=MERGE_RTOL):
    """Reference: the clustering as one loop over the ascending levels."""
    boundaries = [0]
    for i in range(1, energies.size):
        if energies[i] - energies[i - 1] > rtol * max(1.0, abs(energies[i])):
            boundaries.append(i)
    boundaries.append(energies.size)
    merged = [np.empty(len(boundaries) - 1) for _ in range(3)]
    for j in range(len(boundaries) - 1):
        lo, hi = boundaries[j], boundaries[j + 1]
        merged[0][j] = energies[lo:hi].mean()
        merged[1][j] = w00[lo:hi].sum()
        merged[2][j] = wn0[lo:hi].sum()
    return merged


def _assert_same_bits(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@given(st.lists(st.tuples(
    st.sampled_from([-3.0, -0.0, 0.0, 1.0, 2.5, 1e9]),
    st.sampled_from([0.0, 1e-13, -1e-13, 1e-10, 1e-8, 1.0]),
    st.sampled_from([-0.0, 0.0, 0.5, -0.25, 1e-300]),
    st.sampled_from([-0.0, 0.0, 1.0, -2.0]),
), min_size=1, max_size=40))
@example([(-0.0, 0.0, -0.0, -0.0), (1.0, 0.0, 0.5, 1.0)])
def test_merge_is_bit_identical_to_the_level_loop(levels):
    # base alone where the offset is 0, so that -0.0 stays a level; the
    # dense oracle's eigenvalues come ascending, and so do these
    energies = np.array([base + offset if offset else base for base, offset, _, _ in levels])
    order = np.argsort(energies, kind="stable")
    w00 = np.array([w for _, _, w, _ in levels])
    wn0 = w00 * -0.5 + np.array([v for *_, v in levels])
    args = energies[order], w00[order], wn0[order]
    _assert_same_bits(_merge_close_levels(*args), _merge_level_by_level(*args))


def test_merge_of_one_cluster_is_bit_identical_to_the_level_loop():
    # J = 0, g = 0: every level of the sector forms one cluster
    rng = np.random.default_rng(3)
    energies = np.sort(np.full(51, 50.0) + rng.uniform(-1e-12, 1e-12, 51))
    args = energies, rng.uniform(0, 1, 51), rng.uniform(-1, 1, 51)
    got = _merge_close_levels(*args)
    assert got[0].size == 1
    _assert_same_bits(got, _merge_level_by_level(*args))


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
    direct = (lorentz @ w00 / np.pi, lorentz @ wn0 / np.pi)
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
    for weights in ([0.5, 0.6], [0.5, 0.5 + 2e-10]):
        with pytest.raises(ValueError, match="sum to 1"):
            LineSpectrum(energies=[0.0, 1.0], weights=weights)
    for weights in ([-0.5, 1.5], [-2e-14, 1.0 + 2e-14]):
        with pytest.raises(ValueError, match="non-negative"):
            LineSpectrum(energies=[0.0, 1.0], weights=weights)
    # a weight of -1e-14 is rounding, and a sum within 1e-10 of one is one
    LineSpectrum(energies=[0.0, 1.0], weights=[-1e-14, 1.0 + 1e-14])
    LineSpectrum(energies=[0.0, 1.0], weights=[0.5, 0.5 + 5e-11])
    for energies in ([1.0, 1.0], [math.inf, math.inf], [0.0, 2.0, 1.0]):
        with pytest.raises(ValueError, match="ascending"):
            LineSpectrum(energies=energies, weights=[1.0] + [0.0] * (len(energies) - 1))
    with pytest.raises(ValueError, match="at least one"):
        LineSpectrum(energies=[], weights=[])
    for energies in ([math.inf], [0.0, math.inf], [-math.inf, 0.0], [-math.inf, math.inf],
                     [-math.inf, 0.0, 1.0, math.inf]):
        with pytest.raises(ValueError, match="overflowed"):
            LineSpectrum(energies=energies, weights=[1.0] + [0.0] * (len(energies) - 1))
    spec = LineSpectrum(energies=[0.0, 1.0], weights=[0.25, 0.75])
    assert len(spec) == 2
    assert spec.weights.dtype == float


@pytest.mark.parametrize("make, message", [
    (lambda: LineSpectrum(energies=[0.0, math.nan], weights=[0.5, 0.5]), "ascending"),
    (lambda: LineSpectrum(energies=[math.nan, 0.0], weights=[0.5, 0.5]), "ascending"),
    (lambda: LineSpectrum(energies=[0.0, math.nan, 1.0], weights=[0.5, 0.0, 0.5]), "ascending"),
    (lambda: LineSpectrum(energies=[math.nan], weights=[1.0]), "overflowed"),
    (lambda: LineSpectrum(energies=[0.0, 1.0], weights=[math.nan, 0.5]), "non-negative"),
    (lambda: LineSpectrum(energies=[0.0, 1.0], weights=[0.5, math.nan]), "non-negative"),
    (lambda: AmplitudeSeries(times=[0.0, 1.0, 2.0], values=[math.nan, 0.0, 0.0]), "modulus"),
    (lambda: AmplitudeSeries(times=[0.0, math.nan, 2.0], values=[0.0, 0.0, 0.0]), "uniform"),
], ids=["line-energy", "line-energy-first", "line-energy-middle", "line-energy-alone",
        "line-weight", "line-weight-last", "amplitude-value", "amplitude-time"])
def test_invariant_types_reject_nan(make, message):
    """Every invariant holds positively, so a NaN fails it instead of passing."""
    with pytest.raises(ValueError, match=message):
        make()


def test_line_spectrum_arrays_are_readonly():
    spec = LineSpectrum(energies=[0.0, 1.0], weights=[0.5, 0.5])
    with pytest.raises(ValueError):
        spec.energies[0] = 7.0


def test_line_spectrum_copies_what_a_caller_can_still_write():
    energies = np.array([0.0, 1.0])
    weights = np.array([0.5, 0.5])
    frozen_view = weights.view()
    frozen_view.flags.writeable = False
    spec = LineSpectrum(energies=energies, weights=frozen_view)
    energies[0] = -1.0
    weights[0] = 0.25
    assert spec.energies.tolist() == [0.0, 1.0]
    assert spec.weights.tolist() == [0.5, 0.5]
    # an owned, read-only buffer is kept as it is
    owned = np.array([0.0, 2.0])
    owned.flags.writeable = False
    assert LineSpectrum(energies=owned, weights=[0.5, 0.5]).energies is owned


@given(st.lists(st.tuples(
    st.sampled_from([-math.inf, -2.5, -0.0, 0.0, 5e-324, 1.0, 1.0 + 2**-52, 3.0, math.inf]),
    st.sampled_from([-0.0, 0.0, 1e-300, 0.25, -0.5, 1.0, 1e16, -1e16]),
    st.sampled_from([-0.0, 0.0, 0.125, -3.0]),
), min_size=1, max_size=200), st.sampled_from(["as drawn", "ascending", "descending"]))
@example([(-0.0, -0.0, -0.0)], "as drawn")
# summed in the order given, from 0.0, the weights of this level make 0.0
@example([(2.5, 1.0, 0.0), (2.5, 1e16, 0.0), (2.5, -1e16, 0.0)], "as drawn")
@example([(0.0, 0.25, 1.0), (-0.0, -0.0, -0.0), (0.0, 0.5, -3.0)], "as drawn")
@example([(math.inf, 1.0, 0.0), (-math.inf, 0.0, 1.0), (math.inf, 0.25, -0.0)], "descending")
def test_level_merge_is_bit_identical_to_unique_and_bincount(lines, order):
    """The one level merge gives the levels of ``np.unique`` and the sums of
    ``np.bincount`` over its inverse, bit for bit: a level of -0.0 and 0.0
    takes the sign that NumPy puts first, and a weight of -0.0 alone reads
    0.0, as bincount sums from 0.0."""
    energies, w00, wn0 = (np.array(column) for column in zip(*lines))
    if order != "as drawn":
        permutation = np.argsort(energies, kind="stable")
        if order == "descending":
            permutation = permutation[::-1]
        energies, w00, wn0 = energies[permutation], w00[permutation], wn0[permutation]
    levels, row = np.unique(energies, return_inverse=True)
    want = levels, np.bincount(row, w00), np.bincount(row, wn0)
    got = _merge_equal_levels(energies, w00, wn0)
    _assert_same_bits(got, want)
    for a, b in zip(got, want):
        assert np.array_equal(np.signbit(a), np.signbit(b))


def test_edge_lines_halve_the_weights_and_merge_across_halves():
    sym = LineSpectrum(energies=[-1.0, 0.5, 2.0], weights=[0.25, 0.25, 0.5])
    anti = LineSpectrum(energies=[0.5, 2.0 + 1e-12], weights=[0.5, 0.5])
    energies, w00, wn0 = edge_lines(sym, anti)
    # lines 1e-12 apart stay two rows; the lines at 0.5 in both halves form
    # one, their weights summed: +0.25/2 and -0.5/2
    assert energies.tolist() == [-1.0, 0.5, 2.0, 2.0 + 1e-12]
    assert w00.tolist() == [0.125, 0.375, 0.25, 0.25]
    assert wn0.tolist() == [0.125, -0.125, 0.25, -0.25]
    # an energy of -0.0 in one half and 0.0 in the other is one row at 0.0
    energies, w00, wn0 = edge_lines(LineSpectrum([-0.0], [1.0]), LineSpectrum([0.0], [1.0]))
    assert (energies.tobytes(), w00.tolist(), wn0.tolist()) == (
        np.zeros(1).tobytes(), [1.0], [0.0])


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


def test_amplitude_series_invariants():
    with pytest.raises(ValueError, match="uniform"):
        AmplitudeSeries(times=[0.0, 1.0, 3.0], values=[1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="modulus"):
        AmplitudeSeries(times=[0.0, 1.0], values=[1.0, 1.5])
    with pytest.raises(ValueError):
        AmplitudeSeries(times=[], values=[])


def test_time_average_recovers_summed_square_weights():
    """Long-time mean of |return|^2 equals sum of squared weights (Parseval)."""
    rng = np.random.default_rng(3)
    energies = np.sort(rng.uniform(-4.0, 4.0, 9))
    w = rng.uniform(0.1, 1.0, 9)
    w /= w.sum()
    spec = LineSpectrum(energies=energies, weights=w)
    series, _ = evolve(spec, spec, 10000.0, 0.05)
    mean_sq = float(np.mean(np.abs(series.values) ** 2))
    assert mean_sq == pytest.approx(float(np.sum(w**2)), abs=1e-3)
