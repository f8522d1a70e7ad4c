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
)
from cavity_rpm.harmonic import harmonic_amplitudes, harmonic_line_spectra
from cavity_rpm.jc import rabi_line_spectra


def halves_for(params):
    return parity_chain_spectra(build_sector_hamiltonian(params))


def test_default_time_grid_scales_with_fastest_rate():
    assert default_time_grid(ModelParams(n_photons=2)) == (50.0, 0.01)
    assert default_time_grid(ModelParams(n_photons=2, j_tun=2.0)) == (50.0, 0.005)
    assert default_time_grid(ModelParams(n_photons=2, g=-4.0, j_tun=2.0)) == (50.0, 0.0025)


def test_evolve_starts_from_the_edge_state():
    ret, tra = evolve(*halves_for(ModelParams(n_photons=6, omega0=1.0, g=1.2, j_tun=0.8)),
                      5.0, 0.01)
    assert ret.values[0] == pytest.approx(1.0, abs=1e-12)
    assert abs(tra.values[0]) < 1e-12
    assert len(ret) == 501
    assert ret.times[-1] == pytest.approx(5.0)


def test_evolve_matches_harmonic_closed_forms():
    params = ModelParams(n_photons=6, omega0=1.0, j_tun=0.8)
    ret, tra = evolve(*harmonic_line_spectra(params), 20.0, 0.01)
    ret_c, tra_c = harmonic_amplitudes(params, ret.times)
    np.testing.assert_allclose(ret.values, ret_c.values, atol=1e-10)
    np.testing.assert_allclose(tra.values, tra_c.values, atol=1e-10)


def test_evolve_matches_eigenbasis_propagation():
    """Propagating the dense eigensystem directly gives the same series."""
    params = ModelParams(n_photons=20, omega0=1.0, g=1.2, j_tun=0.8)
    h = build_sector_hamiltonian(params)
    decomp = diagonalize(h)
    ret, tra = evolve(*parity_chain_spectra(h), 10.0, 0.02)
    v = decomp.vectors
    phases = np.exp(-1j * np.outer(ret.times, decomp.energies))
    # |psi(t)> = V e^{-iEt} V^T e_0 ; read the first and last components
    coeffs = phases * v[0, :][None, :]
    ret_ref = coeffs @ v[0, :]
    tra_ref = coeffs @ v[-1, :]
    np.testing.assert_allclose(ret.values, ret_ref, atol=1e-10)
    np.testing.assert_allclose(tra.values, tra_ref, atol=1e-10)


def test_evolve_conserves_probability():
    ret, tra = evolve(*halves_for(ModelParams(n_photons=10, omega0=1.0, g=1.2, j_tun=0.8)),
                      30.0, 0.01)
    total = np.abs(ret.values) ** 2 + np.abs(tra.values) ** 2
    assert float(np.max(total)) <= 1.0 + 1e-9


def test_evolve_input_validation():
    sym, anti = halves_for(ModelParams(n_photons=4, omega0=1.0, g=0.9, j_tun=0.8))
    with pytest.raises(ValueError):
        evolve(sym, anti, 5.0, 0.0)
    with pytest.raises(ValueError):
        evolve(sym, anti, 0.005, 0.01)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="t_max must be finite"):
            evolve(sym, anti, bad, 0.01)


@st.composite
def _sector_spectra(draw):
    """Parity halves from every source evolve is fed: the parity chains, the
    harmonic closed forms (zero weights below double range from N ~ 1100 on)
    and JC."""
    source = draw(st.sampled_from(["chains", "harmonic", "jc"]))
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
    return parity_chain_spectra(build_sector_hamiltonian(params))


@settings(max_examples=200, deadline=None)
@given(halves=_sector_spectra(), n=st.integers(1, 1000), dt=st.floats(1e-3, 0.1))
def test_evolve_matches_two_direct_syntheses(halves, n, dt):
    """The two half sums under one common phase agree with one synthesis per
    half and with the direct sums, combined as ``(S +- A)/2``, to the
    synthesis tolerance ``8 eps (max|E| max|t| + L) sum|w|``, where ``w``
    are the weights of both halves halved (their sum is 1)."""
    ret, tra = evolve(*halves, n * dt, dt)
    energies = np.concatenate([half.energies for half in halves])
    scale = np.max(np.abs(energies)) * ret.times[-1] + energies.size
    tol = 8 * np.finfo(float).eps * scale
    sym, anti = (amplitude_from_lines(half, ret.times) for half in halves)
    assert np.array_equal(sym.times, ret.times)
    direct_sym, direct_anti = (
        np.exp(-1j * np.outer(ret.times, half.energies)) @ half.weights for half in halves)
    for series, sign in ((ret, 1), (tra, -1)):
        assert np.max(np.abs(series.values - (sym.values + sign * anti.values) / 2)) <= tol
        assert np.max(np.abs(series.values - (direct_sym + sign * direct_anti) / 2)) <= tol


def test_evolve_with_equal_halves():
    """Halves with the same lines cancel exactly in cN = (S - A)/2."""
    half = LineSpectrum(energies=[-0.8, 0.8], weights=[0.5, 0.5])
    ret, tra = evolve(half, half, 20.0, 0.04)
    assert np.all(tra.values == 0)
    np.testing.assert_allclose(ret.values, np.cos(0.8 * ret.times), atol=1e-14)


def test_evolve_resolves_the_edge_doublet():
    """At N=20, g=2, J=0.2, omega0=0 the edge states form a doublet of splitting
    about 1.5e-10, and the N00N transfer of the edge state completes near
    t = pi/Delta.  Synthesized from the halves, cN reaches it and matches the
    parity-blind sums over the dense eigenvectors, sum_j v0_j vN_j e^{-iE_j t}
    and sum_j v0_j^2 e^{-iE_j t}, to the rounding of phases near t = 2e10."""
    h = build_sector_hamiltonian(ModelParams(n_photons=20, g=2.0, j_tun=0.2))
    decomp = diagonalize(h)
    gap = float(decomp.energies[1] - decomp.energies[0])
    t_max = 1.05 * math.pi / gap
    ret, tra = evolve(*parity_chain_spectra(h), t_max, t_max / 4000)
    assert np.max(np.abs(tra.values)) >= 0.9
    v = decomp.vectors
    phases = np.exp(-1j * np.outer(ret.times, decomp.energies))
    np.testing.assert_allclose(ret.values, phases @ (v[0] * v[0]), rtol=0, atol=1e-3)
    np.testing.assert_allclose(tra.values, phases @ (v[0] * v[-1]), rtol=0, atol=1e-3)


def test_harmonic_return_is_periodic():
    params = ModelParams(n_photons=8, omega0=1.0, j_tun=0.8)
    period = math.pi / params.j_tun
    t = np.linspace(0.0, 2.0 * period, 801)
    ret, _ = harmonic_amplitudes(params, t)
    shifted, _ = harmonic_amplitudes(params, t + period)
    np.testing.assert_allclose(np.abs(shifted.values), np.abs(ret.values), atol=1e-12)


def test_first_transfer_finds_harmonic_peak():
    params = ModelParams(n_photons=6, omega0=1.0, j_tun=0.8)
    dt = 0.001
    ret, tra = evolve(*harmonic_line_spectra(params), 10.0, dt)
    t_hit = first_transfer_time(tra, 0.99)
    assert t_hit == pytest.approx(math.pi / (2.0 * params.j_tun), abs=2 * dt)


def test_first_transfer_prefers_earliest_peak():
    params = ModelParams(n_photons=100, omega0=1.0, g=1.2, j_tun=0.8)
    ret, tra = evolve(*halves_for(params), 50.0, 0.005)
    t_hit = first_transfer_time(tra, 0.5)
    assert t_hit is not None
    # the anharmonic transfer peaks within the first few tunneling periods
    assert 0.0 < t_hit < 2.0 * math.pi / params.j_tun


def test_first_transfer_none_without_transfer():
    ret, tra = evolve(*halves_for(ModelParams(n_photons=4, omega0=1.0, g=1.2, j_tun=0.0)),
                      5.0, 0.01)
    assert first_transfer_time(tra, 0.5) is None


def test_first_transfer_threshold_validation():
    _, tra = evolve(*harmonic_line_spectra(ModelParams(n_photons=2, j_tun=0.8)), 5.0, 0.01)
    with pytest.raises(ValueError):
        first_transfer_time(tra, 0.0)
    with pytest.raises(ValueError):
        first_transfer_time(tra, 1.5)
