"""Time-domain propagation and the first-transfer estimator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavity_rpm import dynamics
from cavity_rpm.core import LineSpectrum, ModelParams
from cavity_rpm.dynamics import _block_sums, default_time_grid, evolve, first_transfer_time
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


def test_evolve_of_one_spectrum_matches_cosine():
    spec = LineSpectrum(energies=[-0.8, 0.8], weights=[0.5, 0.5])
    ret, tra = evolve(spec, spec, 20.0, 0.04)
    assert len(ret) == 501
    np.testing.assert_allclose(ret.values, np.cos(0.8 * ret.times), atol=1e-12)
    assert np.all(tra.values == 0)


@st.composite
def _lines_and_grid(draw):
    """A random line spectrum, a sample count n >= 2 and a step dt."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centre = draw(st.floats(-200.0, 200.0))
    spread = draw(st.floats(1e-3, 100.0))
    energies = np.unique(centre + spread * rng.uniform(-1.0, 1.0, draw(st.integers(1, 60))))
    weights = rng.uniform(0.0, 1.0, energies.size) + 1e-3
    weights /= np.sum(weights)
    n = draw(st.one_of(st.sampled_from([2, 4, 9, 256, 1024]), st.integers(2, 3000)))
    return energies, weights, n, draw(st.floats(1e-3, 1.0))


@settings(max_examples=300, deadline=None)
@given(_lines_and_grid())
def test_evolve_matches_direct_sum(case):
    """The block synthesis of one spectrum agrees with the direct sum to its
    rounding scale, for |E t| up to about 3e5."""
    energies, weights, n, dt = case
    spec = LineSpectrum(energies=energies, weights=weights)
    ret, _ = evolve(spec, spec, (n - 1) * dt, dt)
    direct = np.exp(-1j * np.outer(ret.times, energies)) @ weights
    # phase rounding grows with |E t|; the L-term sums add a few eps
    scale = np.max(np.abs(energies)) * ret.times[-1] + energies.size
    assert np.max(np.abs(ret.values - direct)) <= 8 * np.finfo(float).eps * scale


def test_evolve_carries_the_common_phase_exactly():
    """For one line the synthesis is exp(-i E t) with E t carried exactly: the
    error stays at a few eps where rounding E t alone would cost 1e-11."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.prec = 120
    energy = 123.456789
    spec = LineSpectrum(energies=[energy], weights=[1.0])
    ret, _ = evolve(spec, spec, 20000 * 0.0999, 0.0999)
    t = ret.times[::500]
    assert t.size == 41 and np.array_equal(t, np.arange(0, 20001, 500) * 0.0999)
    exact = [complex(mpmath.expj(-mpmath.mpf(energy) * mpmath.mpf(x))) for x in t]
    assert np.max(np.abs(ret.values[::500] - exact)) <= 4 * np.finfo(float).eps


def test_evolve_input_validation():
    sym, anti = halves_for(ModelParams(n_photons=4, omega0=1.0, g=0.9, j_tun=0.8))
    with pytest.raises(ValueError):
        evolve(sym, anti, 5.0, 0.0)
    with pytest.raises(ValueError):
        evolve(sym, anti, 0.005, 0.01)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="t_max must be finite"):
            evolve(sym, anti, bad, 0.01)
    with pytest.raises(ValueError, match="time grid too large"):
        evolve(sym, anti, 1e300, 1e-10)
    # 10^15 samples: refused by count, before any buffer is sized
    with pytest.raises(ValueError, match="time grid too large: 1000000000000001 samples"):
        evolve(sym, anti, 1e12, 1e-3)


def loop_block_sums(energies, weights, times, centre):
    """The block synthesis with one matrix-vector product per block, in a
    Python loop over all blocks of the full grid ``times``: the reference that
    the chunked matrix products must reproduce to rounding."""
    reached = weights != 0
    energies, weights = energies[reached], weights[reached]
    n = times.size
    block = math.ceil(math.sqrt(n))
    offsets = np.arange(block) * (float(times[-1]) / (n - 1))
    shifted = energies - centre
    table = np.exp(-1j * np.outer(offsets, shifted))
    phasors = weights * np.exp(-1j * np.outer(times[::block], shifted))
    values = np.empty(n, dtype=complex)
    for start, phasor in zip(range(0, n, block), phasors):
        stop = min(start + block, n)
        values[start:stop] = table[:stop - start] @ phasor
    return values


@pytest.mark.parametrize("chunk", [1, 2, 3, dynamics._CHUNK_BLOCKS])
def test_block_sums_equal_the_per_block_loop(monkeypatch, chunk):
    """Chunk by chunk, each chunk one matrix product, the block sums agree
    with one product per block to ``8 eps sum|w|``: for line tables with zero
    weights, for one line, and for grids whose last block is partial (7, 10,
    101, 1001, 4097, 76396 samples) or whole (4, 9, 4096).  The two sum the
    lines in other orders (measured: up to 5.0 eps sum|w|, on the 601 lines
    of the harmonic half), and a row's bits depend on the row count of its
    product, so they cannot agree bit for bit."""
    monkeypatch.setattr(dynamics, "_CHUNK_BLOCKS", chunk)
    spectra = [
        *halves_for(ModelParams(n_photons=100, omega0=1.0, g=1.2, j_tun=0.8)),
        *harmonic_line_spectra(ModelParams(n_photons=1200, omega0=1.0, j_tun=0.8)),
        LineSpectrum(energies=[2.5], weights=[1.0]),
    ]
    for n in (2, 4, 7, 9, 10, 101, 1001, 4096, 4097, 76396):
        dt = 0.0237
        times = np.arange(n) * dt
        for spec in spectra:
            centre = 0.5 * (spec.energies[0] + spec.energies[-1]) + 0.1
            chunks = list(_block_sums(spec.energies, spec.weights, n, dt, centre))
            block = math.ceil(math.sqrt(n))
            assert min(part.size for part in chunks) >= block
            reference = loop_block_sums(spec.energies, spec.weights, times, centre)
            assert np.max(np.abs(np.concatenate(chunks) - reference)) <= (
                8 * np.finfo(float).eps * np.sum(np.abs(spec.weights)))


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
    half, each under its own common phase, and with the direct sums, combined as ``(S +- A)/2``, to the
    synthesis tolerance ``8 eps (max|E| max|t| + L) sum|w|``, where ``w``
    are the weights of both halves halved (their sum is 1)."""
    ret, tra = evolve(*halves, n * dt, dt)
    energies = np.concatenate([half.energies for half in halves])
    scale = np.max(np.abs(energies)) * ret.times[-1] + energies.size
    tol = 8 * np.finfo(float).eps * scale
    sym, anti = (evolve(half, half, n * dt, dt)[0] for half in halves)
    assert np.array_equal(sym.times, ret.times)
    direct_sym, direct_anti = (
        np.exp(-1j * np.outer(ret.times, half.energies)) @ half.weights for half in halves)
    for series, sign in ((ret, 1), (tra, -1)):
        assert np.max(np.abs(series.values - (sym.values + sign * anti.values) / 2)) <= tol
        assert np.max(np.abs(series.values - (direct_sym + sign * direct_anti) / 2)) <= tol


def test_evolve_series_keep_their_frozen_buffers():
    halves = harmonic_line_spectra(ModelParams(n_photons=4, omega0=1.0, j_tun=0.5))
    c0, cn = evolve(*halves, t_max=2.0, dt=0.01)
    assert c0.times is cn.times
    for series in (c0, cn):
        assert not series.times.flags.writeable and not series.values.flags.writeable
        assert series.values.base is None


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
