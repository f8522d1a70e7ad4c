"""Time-domain propagation and the first-transfer estimator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavity_rpm.core import LineSpectrum, ModelParams, amplitude_from_lines
from cavity_rpm.dynamics import default_time_grid, evolve, first_transfer_time
from cavity_rpm.effective import (
    build_sector_hamiltonian,
    diagonalize,
    parity_chain_spectra,
    spectra_from_eigen,
)
from cavity_rpm.harmonic import harmonic_amplitudes, harmonic_line_spectra
from cavity_rpm.jc import rabi_line_spectra


def spectra_for(params):
    return spectra_from_eigen(diagonalize(build_sector_hamiltonian(params)))


def test_default_time_grid_scales_with_fastest_rate():
    assert default_time_grid(ModelParams(n_photons=2)) == (50.0, 0.01)
    assert default_time_grid(ModelParams(n_photons=2, j_tun=2.0)) == (50.0, 0.005)
    assert default_time_grid(ModelParams(n_photons=2, g=-4.0, j_tun=2.0)) == (50.0, 0.0025)


def test_evolve_starts_from_the_edge_state():
    spec00, specn0 = spectra_for(ModelParams(n_photons=6, omega0=1.0, g=1.2, j_tun=0.8))
    ret, tra = evolve(spec00, specn0, 5.0, 0.01)
    assert ret.values[0] == pytest.approx(1.0, abs=1e-12)
    assert abs(tra.values[0]) < 1e-12
    assert len(ret) == 501
    assert ret.times[-1] == pytest.approx(5.0)


def test_evolve_matches_harmonic_closed_forms():
    params = ModelParams(n_photons=6, omega0=1.0, j_tun=0.8)
    spec00, spec10 = harmonic_line_spectra(params)
    ret, tra = evolve(spec00, spec10, 20.0, 0.01)
    ret_c, tra_c = harmonic_amplitudes(params, ret.times)
    np.testing.assert_allclose(ret.values, ret_c.values, atol=1e-10)
    np.testing.assert_allclose(tra.values, tra_c.values, atol=1e-10)


def test_evolve_matches_eigenbasis_propagation():
    """Propagating the dense eigensystem directly gives the same series."""
    params = ModelParams(n_photons=20, omega0=1.0, g=1.2, j_tun=0.8)
    h = build_sector_hamiltonian(params)
    decomp = diagonalize(h)
    spec00, specn0 = spectra_for(params)
    ret, tra = evolve(spec00, specn0, 10.0, 0.02)
    v = decomp.vectors
    phases = np.exp(-1j * np.outer(ret.times, decomp.energies))
    # |psi(t)> = V e^{-iEt} V^T e_0 ; read the first and last components
    coeffs = phases * v[0, :][None, :]
    ret_ref = coeffs @ v[0, :]
    tra_ref = coeffs @ v[-1, :]
    np.testing.assert_allclose(ret.values, ret_ref, atol=1e-10)
    np.testing.assert_allclose(tra.values, tra_ref, atol=1e-10)


def test_evolve_conserves_probability():
    spec00, specn0 = spectra_for(ModelParams(n_photons=10, omega0=1.0, g=1.2, j_tun=0.8))
    ret, tra = evolve(spec00, specn0, 30.0, 0.01)
    total = np.abs(ret.values) ** 2 + np.abs(tra.values) ** 2
    assert float(np.max(total)) <= 1.0 + 1e-9


def test_evolve_input_validation():
    spec00, specn0 = spectra_for(ModelParams(n_photons=4, omega0=1.0, g=0.9, j_tun=0.8))
    with pytest.raises(ValueError):
        evolve(spec00, specn0, 5.0, 0.0)
    with pytest.raises(ValueError):
        evolve(spec00, specn0, 0.005, 0.01)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="t_max must be finite"):
            evolve(spec00, specn0, bad, 0.01)
    other = LineSpectrum(energies=[0.0], weights=[1.0], kind="offdiagonal")
    with pytest.raises(ValueError, match="line counts"):
        evolve(spec00, other, 5.0, 0.01)
    # same count, other energies: the half sums pair the lines one by one
    shifted = LineSpectrum(energies=specn0.energies + 1e-3, weights=specn0.weights,
                           kind="offdiagonal")
    with pytest.raises(ValueError, match="energies"):
        evolve(spec00, shifted, 5.0, 0.01)


@st.composite
def _sector_spectra(draw):
    """Line spectra pairs from every source evolve is fed: the parity chains,
    the dense oracle (no exact zeros in either half), the harmonic closed
    forms (zero weights below double range from N ~ 1100 on) and JC."""
    source = draw(st.sampled_from(["chains", "oracle", "harmonic", "jc"]))
    omega0 = draw(st.sampled_from([0.0, 1.0]))
    j = draw(st.one_of(st.just(0.0), st.floats(0.01, 2.0)))
    g = draw(st.one_of(st.just(0.0), st.floats(-2.0, 2.0)))
    if source == "harmonic":
        params = ModelParams(n_photons=2 * draw(st.integers(1, 1000)), omega0=omega0,
                             j_tun=j)
        return harmonic_line_spectra(params)
    if source == "jc":
        n = draw(st.integers(1, 50))
        return rabi_line_spectra(ModelParams(n_photons=n, omega0=omega0, g=g))
    params = ModelParams(n_photons=draw(st.integers(1, 400)), omega0=omega0, g=g, j_tun=j,
                         sigma=draw(st.sampled_from([1, -1])))
    h = build_sector_hamiltonian(params)
    return parity_chain_spectra(h) if source == "chains" else spectra_from_eigen(diagonalize(h))


@settings(max_examples=200, deadline=None)
@given(spectra=_sector_spectra(), n=st.integers(1, 1000), dt=st.floats(1e-3, 0.1))
def test_evolve_matches_two_direct_syntheses(spectra, n, dt):
    """The two parity half sums under one common phase agree with one
    synthesis per spectrum and with the direct sum, to the synthesis
    tolerance ``8 eps (max|E| max|t| + L) sum|w|``.  Here ``w`` are the half
    weights ``(w00 +- wN0) / 2`` that evolve sums: cN is their difference,
    so its rounding scales with them, not with its own weights, which can
    be small.  They bound ``sum|w00|`` and ``sum|wN0|`` from above."""
    spec00, specn0 = spectra
    ret, tra = evolve(spec00, specn0, n * dt, dt)
    phases = np.exp(-1j * np.outer(ret.times, spec00.energies))
    scale = np.max(np.abs(spec00.energies)) * ret.times[-1] + len(spec00)
    halves = np.abs(spec00.weights + specn0.weights) + np.abs(spec00.weights - specn0.weights)
    tol = 8 * np.finfo(float).eps * scale * np.sum(halves) / 2
    for series, spec in ((ret, spec00), (tra, specn0)):
        direct = amplitude_from_lines(spec, ret.times)
        assert np.array_equal(direct.times, series.times)
        assert np.max(np.abs(series.values - direct.values)) <= tol
        assert np.max(np.abs(series.values - phases @ spec.weights)) <= tol


def test_evolve_with_an_empty_half():
    """Spectra with w00 = wN0 on every line leave c0 - cN without lines."""
    spec = LineSpectrum(energies=[-0.8, 0.8], weights=[0.5, 0.5], kind="diagonal")
    cross = LineSpectrum(energies=[-0.8, 0.8], weights=[0.5, 0.5], kind="offdiagonal")
    ret, tra = evolve(spec, cross, 20.0, 0.04)
    np.testing.assert_array_equal(ret.values, tra.values)
    np.testing.assert_allclose(ret.values, np.cos(0.8 * ret.times), atol=1e-14)


def test_harmonic_return_is_periodic():
    params = ModelParams(n_photons=8, omega0=1.0, j_tun=0.8)
    period = math.pi / params.j_tun
    t = np.linspace(0.0, 2.0 * period, 801)
    ret, _ = harmonic_amplitudes(params, t)
    shifted, _ = harmonic_amplitudes(params, t + period)
    np.testing.assert_allclose(np.abs(shifted.values), np.abs(ret.values), atol=1e-12)


def test_first_transfer_finds_harmonic_peak():
    params = ModelParams(n_photons=6, omega0=1.0, j_tun=0.8)
    spec00, spec10 = harmonic_line_spectra(params)
    dt = 0.001
    ret, tra = evolve(spec00, spec10, 10.0, dt)
    t_hit = first_transfer_time(tra, 0.99)
    assert t_hit == pytest.approx(math.pi / (2.0 * params.j_tun), abs=2 * dt)


def test_first_transfer_prefers_earliest_peak():
    params = ModelParams(n_photons=100, omega0=1.0, g=1.2, j_tun=0.8)
    spec00, specn0 = spectra_for(params)
    ret, tra = evolve(spec00, specn0, 50.0, 0.005)
    t_hit = first_transfer_time(tra, 0.5)
    assert t_hit is not None
    # the anharmonic transfer peaks within the first few tunneling periods
    assert 0.0 < t_hit < 2.0 * math.pi / params.j_tun


def test_first_transfer_none_without_transfer():
    spec00, specn0 = spectra_for(ModelParams(n_photons=4, omega0=1.0, g=1.2, j_tun=0.0))
    ret, tra = evolve(spec00, specn0, 5.0, 0.01)
    assert first_transfer_time(tra, 0.5) is None


def test_first_transfer_threshold_validation():
    spec00, spec10 = harmonic_line_spectra(ModelParams(n_photons=2, j_tun=0.8))
    _, tra = evolve(spec00, spec10, 5.0, 0.01)
    with pytest.raises(ValueError):
        first_transfer_time(tra, 0.0)
    with pytest.raises(ValueError):
        first_transfer_time(tra, 1.5)
