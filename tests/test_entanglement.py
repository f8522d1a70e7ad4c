"""Joint amplitude histograms and N00N scoring."""

import math

import numpy as np
import pytest

from cavity_rpm.core import AmplitudeSeries, ModelParams, amplitude_from_lines, edge_lines
from cavity_rpm.dynamics import evolve
from cavity_rpm.effective import (
    build_sector_hamiltonian,
    diagonalize,
    parity_chain_spectra,
    spectra_from_eigen,
)
from cavity_rpm.entanglement import (
    JointHistogram,
    default_sampling_window,
    noon_feasibility,
    noon_score,
    sample_joint,
)
from cavity_rpm.harmonic import harmonic_amplitudes, harmonic_line_spectra


def constant_series(value, n=100):
    t = np.arange(n) * 0.1
    return AmplitudeSeries(times=t, values=np.full(n, value, dtype=complex))


def test_histogram_of_constant_series_fills_one_bin():
    hist = sample_joint(constant_series(1.0), constant_series(0.0), bins=10)
    assert hist.bins[9, 0] == 1.0
    assert float(hist.bins.sum()) == 1.0
    assert hist.n_samples == 100
    assert hist.bin_width == 0.1


def test_histogram_validation():
    with pytest.raises(ValueError, match="bins"):
        sample_joint(constant_series(1.0), constant_series(0.0), bins=1)
    other = constant_series(0.0)
    shifted = AmplitudeSeries(times=other.times + 0.05, values=other.values)
    with pytest.raises(ValueError, match="time grid"):
        sample_joint(constant_series(1.0), shifted)


def test_joint_histogram_invariants():
    good = np.full((4, 4), 1.0 / 16.0)
    JointHistogram(bins=good, n_samples=16)
    with pytest.raises(ValueError):
        JointHistogram(bins=good * 2.0, n_samples=16)
    with pytest.raises(ValueError):
        JointHistogram(bins=np.full((4, 3), 1.0 / 12.0), n_samples=12)
    bad = good.copy()
    bad[0, 0] = -good[0, 0]
    bad[1, 1] += 2 * good[0, 0]
    with pytest.raises(ValueError):
        JointHistogram(bins=bad, n_samples=16)


def test_bin_centers():
    hist = sample_joint(constant_series(0.5), constant_series(0.5), bins=4)
    np.testing.assert_allclose(hist.bin_centers(), [0.125, 0.375, 0.625, 0.875])


def test_harmonic_samples_lie_on_the_unit_circle_of_probability():
    # for N = 2 the moduli satisfy |c0| + |cN| = 1, a straight anti-diagonal
    params = ModelParams(n_photons=2, omega0=1.0, j_tun=0.8)
    ret, tra = harmonic_amplitudes(params, np.arange(0.0, 200.0, 0.01))
    bins = 20
    hist = sample_joint(ret, tra, bins=bins)
    mass_near_antidiagonal = sum(
        hist.bins[i, j]
        for i in range(bins)
        for j in range(bins)
        if abs(i + j - (bins - 1)) <= 1
    )
    assert mass_near_antidiagonal == pytest.approx(1.0, abs=1e-12)


def test_harmonic_never_holds_both_edges_at_once():
    """min(|c0|, |cN|) <= 2^(-N/2), so for N = 6 no sample has both
    probabilities above 0.05 (moduli above 0.2236)."""
    params = ModelParams(n_photons=6, omega0=1.0, j_tun=0.8)
    ret, tra = harmonic_amplitudes(params, np.arange(0.0, 500.0, 0.005))
    both = np.minimum(np.abs(ret.values), np.abs(tra.values))
    assert float(np.max(both)) <= 0.125 + 1e-12
    assert float(np.max(both)) < math.sqrt(0.05)


def test_noon_score_values():
    assert noon_score(1.0, 0.0) == pytest.approx(0.5)
    assert noon_score(0.0, 0.0) == 0.0
    r = 1.0 / math.sqrt(2.0)
    assert noon_score(r, r * 1j) == pytest.approx(1.0)
    assert noon_score(0.3, 0.4) == pytest.approx(0.49 / 2.0)


def test_noon_score_monotonic_in_each_modulus():
    assert noon_score(0.5, 0.3) < noon_score(0.6, 0.3) < noon_score(0.6, 0.4)


def test_noon_score_rejects_unnormalized_input():
    with pytest.raises(ValueError):
        noon_score(1.2, 0.0)
    with pytest.raises(ValueError):
        noon_score(0.0, -1.5j * 1.1)


def test_default_sampling_window():
    params = ModelParams(n_photons=6, omega0=1.0, j_tun=0.8)
    energies, _, _ = edge_lines(*harmonic_line_spectra(params))
    t_max, dt = default_sampling_window(params, energies)
    assert t_max == pytest.approx(1000.0 * math.pi / 0.8)
    span = float(energies[-1] - energies[0])
    assert dt == pytest.approx(2.0 * math.pi / (20.0 * span))
    t_max0, dt0 = default_sampling_window(
        ModelParams(n_photons=4, omega0=1.0, j_tun=0.0),
        edge_lines(*harmonic_line_spectra(ModelParams(n_photons=4, omega0=1.0, j_tun=0.0)))[0],
    )
    assert t_max0 == 50.0
    assert dt0 == 0.01


def test_feasibility_of_balanced_beamsplitter_dynamics():
    # N = 2 harmonic scores are constant 1/2: the argmax is degenerate,
    # only the value is pinned
    feas = noon_feasibility(
        ModelParams(n_photons=2, omega0=1.0, g=0.0, j_tun=0.8),
        t_max=50.0, dt=0.01, threshold=0.55,
    )
    assert feas.max_score == pytest.approx(0.5, abs=1e-9)
    assert feas.fraction_above == 0.0
    assert feas.n_samples == 5001


def test_feasibility_anharmonic_beats_harmonic():
    anharmonic = noon_feasibility(
        ModelParams(n_photons=6, omega0=1.0, g=1.2, j_tun=0.8),
        t_max=200.0, dt=0.01,
    )
    harmonic = noon_feasibility(
        ModelParams(n_photons=6, omega0=1.0, g=0.0, j_tun=0.8),
        t_max=200.0, dt=0.01,
    )
    assert anharmonic.max_score > 0.8
    assert anharmonic.max_score <= 1.0 + 1e-9
    assert 0.0 < anharmonic.fraction_above < 1.0
    assert harmonic.fraction_above == 0.0
    assert anharmonic.max_score > harmonic.max_score
    assert anharmonic.argmax_time > 0.0
    assert anharmonic.threshold == 0.55


def test_marginal_second_moment_matches_weights():
    """Long-time mean of |c0|^2 equals the summed squared weights."""
    params = ModelParams(n_photons=8, omega0=1.0, g=1.2, j_tun=0.8)
    h = build_sector_hamiltonian(params)
    _, w00, _ = spectra_from_eigen(diagonalize(h))
    ret, _ = evolve(*parity_chain_spectra(h), 10000.0 / params.j_tun, 0.05)
    mean_sq = float(np.mean(np.abs(ret.values) ** 2))
    assert mean_sq == pytest.approx(float(np.sum(w00**2)), abs=5e-3)


def test_noon_histogram_from_half_sums_equals_direct_syntheses():
    """The figure-scale noon histogram (N=100, t_max 150) built from evolve's
    half sums under one common phase equals, bin for bin, the one from one
    synthesis per half, each with its own common phase."""
    params = ModelParams(n_photons=100, omega0=1.0, g=1.2, j_tun=0.8)
    halves = parity_chain_spectra(build_sector_hamiltonian(params))
    _, dt = default_sampling_window(params, edge_lines(*halves)[0])
    ret, tra = evolve(*halves, 150.0, dt)
    sym, anti = (amplitude_from_lines(half, ret.times).values for half in halves)
    direct = sample_joint(AmplitudeSeries(ret.times, (sym + anti) / 2),
                          AmplitudeSeries(ret.times, (sym - anti) / 2), bins=50)
    np.testing.assert_array_equal(sample_joint(ret, tra, bins=50).bins, direct.bins)
