"""Pair-recursion resolvent against dense references and its symmetries."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavity_rpm.core import (
    ModelParams,
    NearPoleError,
    NumericalFailureError,
    UnsupportedModelError,
    edge_lines,
    smoothed_density,
)
from cavity_rpm.effective import build_sector_hamiltonian
from cavity_rpm.harmonic import harmonic_line_spectra
from cavity_rpm.rpm import (
    pair_coupling_sq,
    rpm_resolvent,
    rpm_spectra,
    rpm_walk,
)


def dense_edge_elements(params, z):
    h = build_sector_hamiltonian(params).dense()
    n = params.n_photons
    x = np.linalg.solve(z * np.eye(n + 1) - h, np.eye(n + 1)[:, 0])
    return x[0], x[n]


def test_pair_bookkeeping():
    params = ModelParams(n_photons=8, omega0=1.0, g=1.2, j_tun=0.8, sigma=-1)
    # depth 4 pair is the edge pair {|8,0>, |0,8>}
    assert pair_coupling_sq(8, 3, 0.8) == pytest.approx(0.8**2 * 8.0 * 1.0)
    # no pair beyond the edge: coupling out of the last pair vanishes
    assert pair_coupling_sq(8, 4, 0.8) == 0.0


def test_two_photon_edge_elements_match_dense():
    params = ModelParams(n_photons=2, omega0=0.0, g=0.0, j_tun=1.0)
    z = 3.0j
    a, b = rpm_resolvent(params, z)
    a_ref, b_ref = dense_edge_elements(params, z)
    assert a == pytest.approx(a_ref, rel=1e-13)
    assert b == pytest.approx(b_ref, rel=1e-13)


def test_matches_dense_across_parameters():
    rng = np.random.default_rng(11)
    for n in (2, 6, 12, 20):
        for g, j, sigma in ((0.0, 0.8, 1), (1.2, 0.4, -1), (0.5, 0.8, 1)):
            params = ModelParams(n_photons=n, omega0=1.0, g=g, j_tun=j, sigma=sigma)
            z = rng.uniform(-5, 25, 8) + 1j * rng.uniform(0.05, 2.0, 8) * rng.choice([-1, 1], 8)
            a, b = rpm_resolvent(params, z)
            for i, zi in enumerate(z):
                a_ref, b_ref = dense_edge_elements(params, complex(zi))
                assert abs(a[i] - a_ref) / abs(a_ref) < 1e-11
                assert abs(b[i] - b_ref) / max(abs(b_ref), 1e-280) < 1e-11


def test_large_z_asymptotics():
    params = ModelParams(n_photons=2, omega0=0.0, g=0.3, j_tun=0.9)
    z = 1.0e8j
    a, b = rpm_resolvent(params, z)
    # finite-z corrections enter at relative order |E|/|z|
    assert a * z == pytest.approx(1.0, rel=1e-7)
    # leading order of the cross element is the hopping product 2 J^2 / z^3
    assert b * z**3 / (2.0 * params.j_tun**2) == pytest.approx(1.0, rel=1e-6)


def test_rejects_odd_n_and_real_z():
    with pytest.raises(UnsupportedModelError):
        rpm_resolvent(ModelParams(n_photons=3, j_tun=0.5), 1.0j)
    with pytest.raises(UnsupportedModelError):
        list(rpm_walk(ModelParams(n_photons=3, j_tun=0.5), 1.0j))
    with pytest.raises(ValueError, match="real axis"):
        rpm_resolvent(ModelParams(n_photons=2, j_tun=0.5), 1.0 + 0.0j)
    with pytest.raises(ValueError, match="real axis"):
        list(rpm_walk(ModelParams(n_photons=2, j_tun=0.5), 2.0))


def test_near_pole_raises_with_depth():
    # z sits a subnormal distance from the eigenvalue at 2J
    params = ModelParams(n_photons=2, omega0=0.0, g=0.0, j_tun=1.0)
    with pytest.raises(NearPoleError) as excinfo:
        rpm_resolvent(params, 2.0 - 1e-320j)
    assert excinfo.value.depth == 1


def test_walk_near_pole_raises_with_depth():
    params = ModelParams(n_photons=2, omega0=0.0, g=0.0, j_tun=1.0)
    with pytest.raises(NearPoleError) as excinfo:
        list(rpm_walk(params, 2.0 - 1e-320j))
    assert excinfo.value.depth == 1


def test_overflow_far_from_the_spectrum_raises():
    params = ModelParams(n_photons=10, omega0=1.0, g=1.2, j_tun=0.8)
    # the pair denominator is about |z|^2, beyond double range here
    for z in (1e200 - 1e200j, np.array([3.0 - 1.0j, 1e200 - 1e200j])):
        with pytest.raises(NumericalFailureError, match="overflowed"), \
                np.errstate(over="ignore", invalid="ignore"):
            rpm_resolvent(params, z)


def test_walk_yields_every_depth():
    params = ModelParams(n_photons=12, omega0=1.0, g=1.2, j_tun=0.8)
    z = 10.0 + 0.5j
    states = list(rpm_walk(params, z))
    assert [k for k, _, _ in states] == list(range(7))
    a, b = rpm_resolvent(params, z)
    _, a_walk, b_walk = states[-1]
    assert a_walk == pytest.approx(a, rel=1e-14)
    assert b_walk == pytest.approx(b, rel=1e-14)


@st.composite
def _params_and_points(draw):
    """Random sector parameters and 1-4 points across the spectrum, off the axis."""
    params = ModelParams(
        n_photons=2 * draw(st.integers(1, 20)),
        omega0=draw(st.sampled_from([0.0, 1.0])),
        g=draw(st.floats(-1.5, 1.5)),
        j_tun=draw(st.floats(0.05, 1.5)),
        sigma=draw(st.sampled_from([1, -1])),
    )
    levels = np.linalg.eigvalsh(build_sector_hamiltonian(params).dense())
    z = [
        draw(st.floats(levels[0] - 1.0, levels[-1] + 1.0))
        + 1j * draw(st.floats(0.05, 2.0)) * draw(st.sampled_from([1, -1]))
        for _ in range(draw(st.integers(1, 4)))
    ]
    return params, np.array(z)


@settings(deadline=None)
@given(_params_and_points())
def test_recursion_paths_match_dense_solve(case):
    """rpm_resolvent on an array and the last depth of rpm_walk at each point
    agree with a dense solve to criterion 3's relative 1e-9."""
    params, z = case
    a, b = rpm_resolvent(params, z)
    for i, zi in enumerate(z):
        a_ref, b_ref = dense_edge_elements(params, zi)
        *_, (_, a_walk, b_walk) = rpm_walk(params, zi)
        for got_a, got_b in ((a[i], b[i]), (a_walk, b_walk)):
            assert abs(got_a - a_ref) / abs(a_ref) < 1e-9
            assert abs(got_b - b_ref) / max(abs(b_ref), 1e-280) < 1e-9
            if zi.imag < 0:
                assert got_a.imag >= -1e-13


def test_zero_tunneling_decouples_edge():
    params = ModelParams(n_photons=6, omega0=1.0, g=1.2, j_tun=0.0)
    z = 4.0 + 0.3j
    a, b = rpm_resolvent(params, z)
    edge_energy = 6.0 + 2.4 * np.sqrt(6.0)
    assert a == pytest.approx(1.0 / (z - edge_energy), rel=1e-14)
    assert b == 0.0


def sign_symmetry_deviations(params, z):
    """max |a(2 omega0 N - z, -g) + a(z, g)| and the same for b."""
    z = np.asarray(z, dtype=complex)
    a1, b1 = rpm_resolvent(params, z)
    flipped = dataclasses.replace(params, g=-params.g)
    a2, b2 = rpm_resolvent(flipped, 2.0 * (params.omega0 * params.n_photons) - z)
    return float(np.max(np.abs(a2 + a1))), float(np.max(np.abs(b2 + b1)))


def test_sign_symmetry_exact_without_offset():
    params = ModelParams(n_photons=10, omega0=0.0, g=1.2, j_tun=0.8)
    dev_a, dev_b = sign_symmetry_deviations(
        params, [0.25 + 0.5j, -3.5 - 0.0625j, 7.75 - 0.25j])
    assert dev_a == 0.0
    assert dev_b == 0.0


def test_sign_symmetry_with_harmonic_offset():
    params = ModelParams(n_photons=10, omega0=1.0, g=1.2, j_tun=0.8)
    dev_a, dev_b = sign_symmetry_deviations(
        params, [0.25 + 0.5j, 12.5 - 2.0j, -0.125 + 0.03125j])
    assert dev_a <= 1e-12
    assert dev_b <= 1e-12


def test_mirror_densities_between_branches():
    grid = np.arange(-1024, 1025) / 64.0
    plus = ModelParams(n_photons=8, omega0=0.0, g=1.2, j_tun=0.8, sigma=1)
    minus = ModelParams(n_photons=8, omega0=0.0, g=1.2, j_tun=0.8, sigma=-1)
    rho_p, rhon_p = rpm_spectra(plus, grid, 0.01)
    rho_m, rhon_m = rpm_spectra(minus, -grid, 0.01)
    np.testing.assert_array_equal(rho_p, rho_m)
    np.testing.assert_array_equal(rhon_p, rhon_m)


def test_density_positive_and_normalized():
    params = ModelParams(n_photons=8, omega0=1.0, g=1.2, j_tun=0.8)
    grid = np.linspace(-30.0, 50.0, 16001)
    rho00, _ = rpm_spectra(params, grid, 0.05)
    assert float(np.min(rho00)) >= 0.0
    assert np.trapezoid(rho00, grid) == pytest.approx(1.0, abs=2e-3)


def test_harmonic_limit_matches_closed_lines():
    params = ModelParams(n_photons=12, omega0=1.0, g=0.0, j_tun=0.8)
    halves = harmonic_line_spectra(params)
    energies, _, _ = edge_lines(*halves)
    grid = np.linspace(energies[0] - 1, energies[-1] + 1, 801)
    for rho_r, rho_l in zip(rpm_spectra(params, grid, 0.05),
                            smoothed_density(*halves, grid, 0.05)):
        np.testing.assert_allclose(rho_r, rho_l, atol=1e-10)


def test_spectra_input_validation():
    params = ModelParams(n_photons=2, j_tun=0.5)
    for bad in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="epsilon"):
            rpm_spectra(params, [0.0, 1.0], bad)
    with pytest.raises(ValueError):
        rpm_spectra(params, [], 0.01)
