"""Closed forms of the tunnel-coupled harmonic pair."""

import math

import numpy as np
import pytest

from cavity_rpm.core import ModelParams, edge_lines
from cavity_rpm.dynamics import evolve
from cavity_rpm.effective import (
    build_sector_hamiltonian,
    diagonalize,
    parity_chain_spectra,
    spectra_from_eigen,
)
from cavity_rpm.harmonic import harmonic_amplitudes, harmonic_line_spectra


def test_two_photon_lines_are_frozen():
    sym, anti = harmonic_line_spectra(ModelParams(n_photons=2, omega0=0.0, j_tun=1.0))
    # even k in the symmetric half, odd k in the antisymmetric one
    assert (sym.energies.tolist(), sym.weights.tolist()) == ([-2.0, 2.0], [0.5, 0.5])
    assert (anti.energies.tolist(), anti.weights.tolist()) == ([0.0], [1.0])
    energies, w00, wn0 = edge_lines(sym, anti)
    np.testing.assert_array_equal(energies, [-2.0, 0.0, 2.0])
    np.testing.assert_array_equal(w00, [0.25, 0.5, 0.25])
    np.testing.assert_array_equal(wn0, [0.25, -0.5, 0.25])


def test_weights_are_exact_binomials():
    for n in (2, 8, 20):
        _, w00, _ = edge_lines(*harmonic_line_spectra(
            ModelParams(n_photons=n, omega0=0.0, j_tun=0.5)))
        expected = np.array([math.comb(n, k) for k in range(n, -1, -1)]) / 2.0**n
        np.testing.assert_array_equal(w00, expected)


def test_spacing_is_exactly_two_j_on_dyadic_rates():
    energies, _, _ = edge_lines(*harmonic_line_spectra(
        ModelParams(n_photons=12, omega0=0.0, j_tun=0.5)))
    assert np.all(np.diff(energies) == 1.0)


def test_spacing_generic_rates():
    energies, _, _ = edge_lines(*harmonic_line_spectra(
        ModelParams(n_photons=12, omega0=1.0, j_tun=0.8)))
    np.testing.assert_allclose(np.diff(energies), 1.6, rtol=0, atol=1e-12)


def test_zero_tunneling_collapses_to_one_line():
    for n, omega0 in ((6, 1.0), (12, 0.1)):
        halves = harmonic_line_spectra(ModelParams(n_photons=n, omega0=omega0, j_tun=0.0))
        # each half is the exact line omega0 N of weight 1: a mean of its
        # levels could land an ulp off at N=12, omega0=0.1
        for half in halves:
            assert (half.energies.tolist(), half.weights.tolist()) == ([omega0 * n], [1.0])
        # the halves' lines form one row, in which their cross weights cancel
        assert [column.tolist() for column in edge_lines(*halves)] == [[omega0 * n], [1.0], [0.0]]


def test_levels_below_rounding_form_one_line():
    # 4 J lies below the spacing of doubles at omega0 N = 4: the levels of
    # each half coincide in floating point and form one line
    halves = harmonic_line_spectra(ModelParams(n_photons=4, omega0=1.0, j_tun=1e-17))
    for half in halves:
        assert half.energies.tolist() == [4.0]
        assert half.weights.tolist() == [1.0]


def test_odd_photon_number_matches_chains():
    """At odd N the symmetric half holds the odd k, and the transition
    amplitude is i^N sin^N(Jt)."""
    for n in (1, 3, 5, 7, 9, 51):
        params = ModelParams(n_photons=n, omega0=1.0, g=0.0, j_tun=0.8)
        halves = harmonic_line_spectra(params)
        chains = parity_chain_spectra(build_sector_hamiltonian(params))
        for closed, chain in zip(halves, chains):
            np.testing.assert_allclose(closed.energies, chain.energies, rtol=0, atol=1e-12)
            np.testing.assert_allclose(closed.weights, chain.weights, rtol=0, atol=1e-12)
        ret, tra = evolve(*chains, 20.0, 0.01)
        ret_c, tra_c = harmonic_amplitudes(params, ret.times)
        np.testing.assert_allclose(ret_c.values, ret.values, rtol=0, atol=1e-12)
        np.testing.assert_allclose(tra_c.values, tra.values, rtol=0, atol=1e-12)


def test_matches_eigensolver_at_zero_coupling():
    for n in (2, 6, 12):
        params = ModelParams(n_photons=n, omega0=1.0, g=0.0, j_tun=0.8)
        closed = edge_lines(*harmonic_line_spectra(params))
        oracle = spectra_from_eigen(diagonalize(build_sector_hamiltonian(params)))
        for column, ref in zip(closed, oracle):
            np.testing.assert_allclose(column, ref, atol=1e-12)


def test_amplitudes_match_line_synthesis():
    for n in (2, 10, 20):
        params = ModelParams(n_photons=n, omega0=1.0, j_tun=0.8)
        ret, tra = evolve(*harmonic_line_spectra(params), 30.0, 0.02)
        ret_c, tra_c = harmonic_amplitudes(params, ret.times)
        np.testing.assert_allclose(ret.values, ret_c.values, atol=1e-10)
        np.testing.assert_allclose(tra.values, tra_c.values, atol=1e-10)


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
    sym, anti = harmonic_line_spectra(ModelParams(n_photons=2000, j_tun=0.8))
    assert (len(sym), len(anti)) == (1001, 1000)
    for half in (sym, anti):
        assert math.fsum(half.weights) == pytest.approx(1.0, abs=1e-12)
        assert np.all(half.weights >= 0.0)
    _, w00, wn0 = edge_lines(sym, anti)
    assert w00.size == 2001
    assert np.max(np.abs(np.abs(wn0) - w00)) == 0.0
    # each weight is the correctly rounded quotient of the exact integers,
    # also where it is subnormal or 0
    assert all(w00[k] == math.comb(2000, k) / (1 << 2000) for k in range(2001))
    assert np.count_nonzero(w00 == 0) == 396
