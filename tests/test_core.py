"""Unit tests for the shared spectral-line types and synthesis helpers."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavity_rpm.core import (
    AmplitudeSeries,
    LineSpectrum,
    ModelParams,
    amplitude_from_lines,
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


def test_line_spectrum_invariants():
    with pytest.raises(ValueError, match="sum to 1"):
        LineSpectrum(energies=[0.0, 1.0], weights=[0.5, 0.6], kind="diagonal")
    with pytest.raises(ValueError, match="non-negative"):
        LineSpectrum(energies=[0.0, 1.0], weights=[-0.5, 1.5], kind="diagonal")
    with pytest.raises(ValueError, match="ascending"):
        LineSpectrum(energies=[1.0, 1.0], weights=[0.5, 0.5], kind="diagonal")
    with pytest.raises(ValueError, match="kind"):
        LineSpectrum(energies=[0.0], weights=[1.0], kind="mixed")
    # signed weights are fine off the diagonal
    spec = LineSpectrum(energies=[0.0, 1.0], weights=[-0.5, 0.5], kind="offdiagonal")
    assert len(spec) == 2
    assert spec.weights[0] == -0.5


def test_line_spectrum_arrays_are_readonly():
    spec = LineSpectrum(energies=[0.0, 1.0], weights=[0.5, 0.5], kind="diagonal")
    with pytest.raises(ValueError):
        spec.energies[0] = 7.0


def test_smoothed_density_single_lorentzian():
    spec = LineSpectrum(energies=[2.0], weights=[1.0], kind="diagonal")
    eps = 0.03
    grid = np.linspace(-40.0, 44.0, 200001)
    rho = smoothed_density(spec, grid, eps)
    assert rho[np.argmin(np.abs(grid - 2.0))] == pytest.approx(1.0 / (np.pi * eps))
    # the tails integrate to nearly unit mass
    assert np.trapezoid(rho, grid) == pytest.approx(1.0, abs=1e-3)
    with pytest.raises(ValueError):
        smoothed_density(spec, grid, 0.0)
    with pytest.raises(ValueError):
        smoothed_density(spec, [], eps)


def test_amplitude_from_lines_matches_cosine():
    spec = LineSpectrum(energies=[-0.8, 0.8], weights=[0.5, 0.5], kind="diagonal")
    t = np.linspace(0.0, 20.0, 501)
    series = amplitude_from_lines(spec, t)
    np.testing.assert_allclose(series.values, np.cos(0.8 * t), atol=1e-12)
    assert series.dt == pytest.approx(t[1] - t[0])


@st.composite
def _lines_and_grid(draw):
    """A random line spectrum with sum |w| = 1 and a uniform time grid."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centre = draw(st.floats(-200.0, 200.0))
    spread = draw(st.floats(1e-3, 100.0))
    energies = np.unique(centre + spread * rng.uniform(-1.0, 1.0, draw(st.integers(1, 60))))
    weights = rng.normal(size=energies.size) + 1j * rng.normal(size=energies.size)
    weights /= np.sum(np.abs(weights))
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
    spec = LineSpectrum(energies=energies, weights=weights, kind="offdiagonal")
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
    spec = LineSpectrum(energies=[energy], weights=[1.0], kind="diagonal")
    t = np.arange(20001) * 0.0999
    got = amplitude_from_lines(spec, t).values[::500]
    exact = [complex(mpmath.expj(-mpmath.mpf(energy) * mpmath.mpf(x))) for x in t[::500]]
    assert np.max(np.abs(got - exact)) <= 4 * np.finfo(float).eps


def test_amplitude_from_lines_rejects_grid_uniform_only_to_1e_9():
    spec = LineSpectrum(energies=[-0.8, 0.8], weights=[0.5, 0.5], kind="diagonal")
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
    single = AmplitudeSeries(times=[0.0], values=[1.0])
    assert single.dt == 0.0


def test_resolvent_from_lines_simple_pole():
    spec = LineSpectrum(energies=[1.5], weights=[1.0], kind="diagonal")
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
    spec = LineSpectrum(energies=energies, weights=w, kind="diagonal")
    t = np.arange(0.0, 10000.0, 0.05)
    series = amplitude_from_lines(spec, t)
    mean_sq = float(np.mean(np.abs(series.values) ** 2))
    assert mean_sq == pytest.approx(float(np.sum(w**2)), abs=1e-3)
