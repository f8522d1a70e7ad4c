"""Closed forms of the tunnel-coupled harmonic pair."""

import math

import numpy as np
import pytest

from cavity_rpm.core import ModelParams, UnsupportedModelError, amplitude_from_lines
from cavity_rpm.effective import build_sector_hamiltonian, diagonalize, spectra_from_eigen
from cavity_rpm.harmonic import harmonic_amplitudes, harmonic_line_spectra


def test_two_photon_lines_are_frozen():
    spec00, spec10 = harmonic_line_spectra(ModelParams(n_photons=2, omega0=0.0, j_tun=1.0))
    np.testing.assert_array_equal(spec00.energies, [-2.0, 0.0, 2.0])
    np.testing.assert_array_equal(spec00.weights, [0.25, 0.5, 0.25])
    np.testing.assert_array_equal(np.real(spec10.weights), [0.25, -0.5, 0.25])


def test_weights_are_exact_binomials():
    for n in (2, 8, 20):
        spec00, _ = harmonic_line_spectra(ModelParams(n_photons=n, omega0=0.0, j_tun=0.5))
        expected = np.array([math.comb(n, k) for k in range(n, -1, -1)]) / 2.0**n
        np.testing.assert_array_equal(spec00.weights, expected)


def test_spacing_is_exactly_two_j_on_dyadic_rates():
    spec00, _ = harmonic_line_spectra(ModelParams(n_photons=12, omega0=0.0, j_tun=0.5))
    assert np.all(np.diff(spec00.energies) == 1.0)


def test_spacing_generic_rates():
    spec00, _ = harmonic_line_spectra(ModelParams(n_photons=12, omega0=1.0, j_tun=0.8))
    np.testing.assert_allclose(np.diff(spec00.energies), 1.6, rtol=0, atol=1e-12)


def test_zero_tunneling_collapses_to_one_line():
    spec00, spec10 = harmonic_line_spectra(ModelParams(n_photons=6, omega0=1.0, j_tun=0.0))
    assert len(spec00) == 1
    assert spec00.energies[0] == pytest.approx(6.0)
    assert spec00.weights[0] == pytest.approx(1.0)
    # alternating cross weights cancel inside the merged level
    assert abs(spec10.weights[0]) < 1e-15


def test_odd_photon_number_rejected():
    with pytest.raises(UnsupportedModelError):
        harmonic_line_spectra(ModelParams(n_photons=5, j_tun=0.5))
    with pytest.raises(UnsupportedModelError):
        harmonic_amplitudes(ModelParams(n_photons=3, j_tun=0.5), [0.0, 0.1])


def test_matches_eigensolver_at_zero_coupling():
    for n in (2, 6, 12):
        params = ModelParams(n_photons=n, omega0=1.0, g=0.0, j_tun=0.8)
        h00, h10 = harmonic_line_spectra(params)
        e00, e10 = spectra_from_eigen(diagonalize(build_sector_hamiltonian(params)))
        np.testing.assert_allclose(h00.energies, e00.energies, atol=1e-12)
        np.testing.assert_allclose(h00.weights, e00.weights, atol=1e-12)
        np.testing.assert_allclose(h10.weights, e10.weights, atol=1e-12)


def test_amplitudes_match_line_synthesis():
    t = np.linspace(0.0, 30.0, 1501)
    for n in (2, 10, 20):
        params = ModelParams(n_photons=n, omega0=1.0, j_tun=0.8)
        spec00, spec10 = harmonic_line_spectra(params)
        ret_c, tra_c = harmonic_amplitudes(params, t)
        np.testing.assert_allclose(
            amplitude_from_lines(spec00, t).values, ret_c.values, atol=1e-10)
        np.testing.assert_allclose(
            amplitude_from_lines(spec10, t).values, tra_c.values, atol=1e-10)


def test_full_revival_at_half_period():
    params = ModelParams(n_photons=14, omega0=1.0, j_tun=0.8)
    ret, tra = harmonic_amplitudes(params, [math.pi / params.j_tun])
    assert abs(ret.values[0]) == pytest.approx(1.0, abs=1e-12)
    assert abs(tra.values[0]) == pytest.approx(0.0, abs=1e-12)


def test_return_sharpens_with_photon_number():
    # away from revivals the return shrinks monotonically in N
    t = np.array([1.0])
    mags = []
    for n in range(2, 22, 2):
        ret, _ = harmonic_amplitudes(ModelParams(n_photons=n, j_tun=0.8), t)
        mags.append(abs(ret.values[0]))
    assert all(b < a for a, b in zip(mags, mags[1:]))


def test_edge_probabilities_never_exceed_one():
    t = np.linspace(0.0, 25.0, 2001)
    ret, tra = harmonic_amplitudes(ModelParams(n_photons=8, omega0=1.0, j_tun=0.8), t)
    total = np.abs(ret.values) ** 2 + np.abs(tra.values) ** 2
    assert float(np.max(total)) <= 1.0 + 1e-12


def test_weights_do_not_overflow_beyond_n_1023():
    # 2.0**N overflows at N = 1024 and C(N, k) exceeds double range near N = 1030
    spec00, spec10 = harmonic_line_spectra(ModelParams(n_photons=2000, j_tun=0.8))
    assert len(spec00) == 2001
    assert math.fsum(spec00.weights) == pytest.approx(1.0, abs=1e-12)
    assert np.all(spec00.weights >= 0.0)
    assert np.max(np.abs(np.abs(spec10.weights) - spec00.weights)) == 0.0
    # each weight is the correctly rounded quotient of the exact integers
    assert all(spec00.weights[k] == math.comb(2000, k) / (1 << 2000) for k in range(2001))
