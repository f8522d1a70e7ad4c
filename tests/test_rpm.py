"""Pair-recursion resolvent against dense references and its symmetries."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavity_rpm.core import (
    ModelParams,
    NearPoleError,
    NumericalFailureError,
    edge_lines,
    smoothed_density,
)
from cavity_rpm.dynamics import evolve
from cavity_rpm.effective import (
    build_sector_hamiltonian,
    diagonalize,
    parity_chain_spectra,
)
from cavity_rpm.harmonic import harmonic_amplitudes, harmonic_line_spectra
from cavity_rpm.rpm import (
    pair_coupling_sq,
    rpm_resolvent,
    rpm_spectra,
    rpm_walk,
)

from sector_matrix import dense


def dense_edge_elements(params, z):
    h = dense(build_sector_hamiltonian(params))
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


def test_takes_odd_n_and_rejects_real_z():
    rng = np.random.default_rng(5)
    for n in (1, 3, 7, 21):
        params = ModelParams(n_photons=n, omega0=1.0, g=0.7, j_tun=0.5, sigma=-1)
        z = rng.uniform(-5, 30, 6) + 1j * rng.uniform(0.05, 2.0, 6) * rng.choice([-1, 1], 6)
        a, b = rpm_resolvent(params, z)
        for i, zi in enumerate(z):
            a_ref, b_ref = dense_edge_elements(params, complex(zi))
            *_, (_, a_walk, b_walk) = rpm_walk(params, zi)
            for got_a, got_b in ((a[i], b[i]), (a_walk, b_walk)):
                assert abs(got_a - a_ref) <= 1e-12 * abs(a_ref)
                assert abs(got_b - b_ref) <= 1e-12 * max(abs(b_ref), 1e-280)
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


@pytest.mark.parametrize("n, z", [(2, -1e-320j), (1, 1.0 - 1e-320j)])
def test_seed_on_a_pole_raises_at_depth_0(n, z):
    # the centre state at 0 (N=2) and the centre pair's level at J (N=1) sit
    # a subnormal distance from z; no division warning comes first
    params = ModelParams(n_photons=n, omega0=0.0, g=0.0, j_tun=1.0)
    for evaluate in (lambda: rpm_resolvent(params, np.array([0.5j, z])),
                     lambda: list(rpm_walk(params, z))):
        with pytest.raises(NearPoleError) as excinfo:
            evaluate()
        assert excinfo.value.depth == 0


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


def plain_operator_resolvent(params, z):
    """The pair recursion written with plain operators, one fresh array per
    operation, and the pair energies and couplings from ``math`` per depth."""
    n = params.n_photons
    half = n / 2.0

    def f(s):
        return 2.0 * params.sigma * params.g * (math.sqrt(half + s) + math.sqrt(half - s))

    y = z - n * params.omega0
    s0 = n % 2 / 2
    d = y - f(s0)
    if n % 2 == 0:
        a = b = 1.0 / d
    else:
        e = params.j_tun * (n // 2 + 1)
        den = (d - e) * (d + e)
        a, b = d / den, -e / den
    for k in range(n // 2):
        s = k + s0
        t2 = params.j_tun**2 * (half + s + 1.0) * (half - s)
        d = y - f(s + 1) - t2 * a
        bb = t2 * b
        r = np.reciprocal((d - bb) * (d + bb))
        a, b = d * r, bb * r
    return a, b


@pytest.mark.parametrize("seed", range(6))
def test_resolvent_is_bit_identical_to_the_plain_operator_loop(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 2001))
    params = ModelParams(n_photons=n, omega0=float(rng.choice([0.0, 1.0])),
                         g=float(rng.uniform(-1.5, 1.5)), j_tun=float(rng.uniform(0.0, 1.5)),
                         sigma=int(rng.choice([1, -1])))
    levels = build_sector_hamiltonian(params).diag
    # grids of two points or more: NumPy rounds a product of one-element
    # arrays in place (as the loop's buffers do) like its scalars, without FMA
    size = 2 * int(rng.integers(1, 1500))
    z = (rng.uniform(levels.min() - 5.0, levels.max() + 5.0, size)
         + 1j * rng.uniform(1e-3, 2.0, size) * rng.choice([-1, 1], size))
    a, b = rpm_resolvent(params, z)
    a_ref, b_ref = plain_operator_resolvent(params, z)
    assert np.array_equal(a, a_ref)
    assert np.array_equal(b, b_ref)
    a2, b2 = rpm_resolvent(params, z.reshape(-1, 2))
    assert a2.shape == b2.shape == (size // 2, 2)
    assert np.array_equal(a2.ravel(), a_ref)
    assert np.array_equal(b2.ravel(), b_ref)
    # one point is the last depth of the walk
    *_, (_, a_walk, b_walk) = rpm_walk(params, z[0])
    assert rpm_resolvent(params, z[0]) == (a_walk, b_walk)


def test_multi_point_walk_ends_in_the_grid_resolvent_bit_for_bit():
    """Points walked together round as inside any grid holding them, so the
    depth-by-depth walk checks the very bits the densities are made of."""
    rng = np.random.default_rng(7)
    for n in (1, 2, 37, 400, 1001):
        params = ModelParams(n_photons=n, omega0=1.0, g=float(rng.uniform(-1.5, 1.5)),
                             j_tun=float(rng.uniform(0.05, 1.5)), sigma=int(rng.choice([1, -1])))
        levels = build_sector_hamiltonian(params).diag
        size = int(rng.integers(2, 12))
        z = (rng.uniform(levels.min() - 5.0, levels.max() + 5.0, size)
             + 1j * rng.uniform(1e-3, 2.0, size) * rng.choice([-1, 1], size))
        walk = list(rpm_walk(params, z))
        assert [k for k, _, _ in walk] == list(range(n // 2 + 1))
        # every depth is its own array of z's shape, not the loop's buffer
        assert all(a.shape == b.shape == z.shape for _, a, b in walk)
        assert not any(np.shares_memory(u[1], v[1]) for u, v in zip(walk, walk[1:]))
        grid_size = int(rng.integers(size, 3000))
        grid = (rng.uniform(levels.min() - 5.0, levels.max() + 5.0, grid_size)
                + 1j * rng.uniform(1e-3, 2.0, grid_size))
        where = rng.choice(grid_size, size, replace=False)
        grid[where] = z
        a, b = rpm_resolvent(params, grid)
        _, a_walk, b_walk = walk[-1]
        assert np.array_equal(a[where], a_walk)
        assert np.array_equal(b[where], b_walk)
        *_, (_, a2, b2) = rpm_walk(params, z.reshape(1, -1))
        assert np.array_equal(a2, a_walk.reshape(1, -1))
        assert np.array_equal(b2, b_walk.reshape(1, -1))


def test_walk_matches_dense_central_blocks_at_every_depth():
    params = ModelParams(n_photons=14, omega0=1.0, g=-0.7, j_tun=0.6, sigma=1)
    h = dense(build_sector_hamiltonian(params))
    m = params.n_photons // 2
    z = 12.0 - 0.4j
    walk = list(rpm_walk(params, z))
    assert [k for k, _, _ in walk] == list(range(m + 1))
    for k, a, b in walk:
        assert type(a) is np.complex128 and type(b) is np.complex128
        # pairs 0..k are the central states m-k .. m+k
        block = h[m - k:m + k + 1, m - k:m + k + 1]
        x = np.linalg.solve(z * np.eye(2 * k + 1) - block, np.eye(2 * k + 1)[:, 0])
        assert abs(a - x[0]) <= 1e-12 * abs(x[0])
        assert abs(b - x[2 * k]) <= 1e-12 * max(abs(x[2 * k]), 1e-280)


@pytest.mark.parametrize("n", [1, 2, 9, 14])
def test_a_scalar_z_gives_the_one_element_result_as_a_numpy_scalar(n):
    """At every depth of the walk, and from the resolvent, a scalar ``z``
    gives ``np.complex128`` values with the bits of a one-element grid's."""
    params = ModelParams(n_photons=n, omega0=1.0, g=-0.7, j_tun=0.6, sigma=1)
    z = 3.0 - 0.4j
    walk = list(rpm_walk(params, z))
    grid_walk = list(rpm_walk(params, np.array([z])))
    assert len(walk) == len(grid_walk) == n // 2 + 1
    results = [(a, b, a1, b1) for (_, a, b), (_, a1, b1) in zip(walk, grid_walk)]
    results.append((*rpm_resolvent(params, z), *rpm_resolvent(params, np.array([z]))))
    for a, b, a1, b1 in results:
        assert type(a) is np.complex128 and type(b) is np.complex128
        assert np.array([a, b]).tobytes() == np.concatenate([a1, b1]).tobytes()


@pytest.mark.parametrize("n", [10**4, 10**4 + 1])
@pytest.mark.parametrize("sigma", [1, -1])
def test_resolvent_matches_a_banded_solve_at_ten_thousand_photons(n, sigma):
    """The recursion against LAPACK's banded LU solve of (z - H) x = e_0,
    which shares none of its arithmetic, at the CLI's default pair and
    broadening on 60 seeded points of the default grid and 4 far off the
    axis: relative 1e-10 wherever the element exceeds 1e-290 in modulus, and
    below 1e-280 where it does not (the cross element underflows there)."""
    from scipy.linalg import solve_banded

    params = ModelParams(n_photons=n, omega0=1.0, g=1.2, j_tun=0.8, sigma=sigma)
    h = build_sector_hamiltonian(params)
    reach = 2.0 * float(np.max(np.abs(h.offdiag)))
    grid = np.linspace(h.diag.min() - reach - 1.0, h.diag.max() + reach + 1.0, 4001)
    rng = np.random.default_rng(n + sigma)
    z = np.concatenate([rng.choice(grid, 60, replace=False) - 0.01j,
                        [grid[0] - 1e3 - 1.0j, grid[-1] + 50.0 - 20.0j,
                         grid[2000] + 100.0j, grid[1000] - 1e4j]])
    a, b = rpm_resolvent(params, z)
    bands = np.zeros((3, n + 1), dtype=complex)
    bands[0, 1:] = bands[2, :-1] = -h.offdiag
    rhs = np.zeros(n + 1, dtype=complex)
    rhs[0] = 1.0
    for i, zi in enumerate(z):
        bands[1] = zi - h.diag
        x = solve_banded((1, 1), bands, rhs)
        for got, ref in ((a[i], x[0]), (b[i], x[-1])):
            if abs(ref) > 1e-290:
                assert abs(got - ref) <= 1e-10 * abs(ref), (zi, got, ref)
            else:
                assert abs(got) <= 1e-280, (zi, got, ref)


def test_pole_floor_checks_the_modulus_where_the_real_part_vanishes():
    # J = 0, g = 0: den = z^2 = 0.5j, whose real part is exactly 0 but whose
    # modulus 0.5 is far above the floor
    params = ModelParams(n_photons=2, omega0=0.0, g=0.0, j_tun=0.0)
    z = 0.5 + 0.5j
    a, b = rpm_resolvent(params, z)
    assert a == 1 / z
    assert b == 0.0
    # a near pole beside an ordinary point still raises at its depth
    with pytest.raises(NearPoleError) as excinfo:
        rpm_resolvent(dataclasses.replace(params, j_tun=1.0), np.array([0.5 + 0.5j, 2.0 - 1e-320j]))
    assert excinfo.value.depth == 1


@st.composite
def _params_and_points(draw):
    """Random sector parameters and 1-4 points across the spectrum, off the axis."""
    params = ModelParams(
        n_photons=draw(st.integers(1, 40)),
        omega0=draw(st.sampled_from([0.0, 1.0])),
        g=draw(st.floats(-1.5, 1.5)),
        j_tun=draw(st.floats(0.05, 1.5)),
        sigma=draw(st.sampled_from([1, -1])),
    )
    levels = np.linalg.eigvalsh(dense(build_sector_hamiltonian(params)))
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
    """max |a(2 omega0 N - z, -g) + a(z, g)| and max |b(2 omega0 N - z, -g) +
    (-1)^N b(z, g)|: the gauge (-1)^k carries (-1)^N onto the cross element."""
    z = np.asarray(z, dtype=complex)
    a1, b1 = rpm_resolvent(params, z)
    flipped = dataclasses.replace(params, g=-params.g)
    a2, b2 = rpm_resolvent(flipped, 2.0 * (params.omega0 * params.n_photons) - z)
    sign = (-1) ** params.n_photons
    return float(np.max(np.abs(a2 + a1))), float(np.max(np.abs(b2 + sign * b1)))


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


@pytest.mark.parametrize("n, omega0", [(1, 0.0), (7, 0.0), (7, 1.0), (21, 1.0)])
def test_sign_symmetry_at_odd_n(n, omega0):
    params = ModelParams(n_photons=n, omega0=omega0, g=1.2, j_tun=0.8)
    dev_a, dev_b = sign_symmetry_deviations(
        params, np.array([0.25 + 0.5j, 12.5 - 2.0j, -0.125 + 0.03125j]) + omega0 * n)
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


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 60),
    g=st.floats(-2.0, 2.0),
    j=st.one_of(st.just(0.0), st.floats(0.01, 2.0)),
    sigma=st.sampled_from([1, -1]),
    omega0=st.floats(-2.0, 2.0),
    epsilon=st.floats(0.05, 1.0),
)
def test_three_routes_agree_at_every_n(n, g, j, sigma, omega0, epsilon):
    """The recursion, the parity chains and the dense eigenpairs give one
    pair of densities, at even and odd N alike; at g = 0 the harmonic closed
    forms give the chains' lines and amplitudes.

    No route clusters levels on the way: the chains' table keeps lines of
    the two halves apart however close, and the dense leg broadens every
    eigenpair, so near-degenerate levels are compared too."""
    params = ModelParams(n_photons=n, omega0=omega0, g=g, j_tun=j, sigma=sigma)
    h = build_sector_hamiltonian(params)
    halves = parity_chain_spectra(h)
    reach = 2.0 * float(np.max(np.abs(h.offdiag)))
    grid = np.linspace(h.diag.min() - reach - 1.0, h.diag.max() + reach + 1.0, 257)
    decomp = diagonalize(h)
    first, last = decomp.vectors[0], decomp.vectors[-1]
    lorentz = epsilon / (epsilon**2 + (grid[:, None] - decomp.energies[None, :]) ** 2) / np.pi
    chains = smoothed_density(*halves, grid, epsilon)
    for rho_r, rho_c, rho_o in zip(rpm_spectra(params, grid, epsilon), chains,
                                   (lorentz @ first**2, lorentz @ (last * first))):
        assert np.max(np.abs(rho_r - rho_c)) <= 1e-10
        assert np.max(np.abs(rho_r - rho_o)) <= 1e-10

    free = dataclasses.replace(params, g=0.0)
    halves = harmonic_line_spectra(free)
    chain_halves = parity_chain_spectra(build_sector_hamiltonian(free))
    for closed, chain in zip(halves, chain_halves):
        np.testing.assert_allclose(closed.energies, chain.energies, rtol=0, atol=1e-12)
        np.testing.assert_allclose(closed.weights, chain.weights, rtol=0, atol=1e-12)
    ret, tra = evolve(*chain_halves, 10.0, 0.01)
    for closed, synthesized in zip(harmonic_amplitudes(free, ret.times), (ret, tra)):
        np.testing.assert_allclose(closed.values, synthesized.values, rtol=0, atol=1e-10)


def test_spectra_input_validation():
    params = ModelParams(n_photons=2, j_tun=0.5)
    for bad in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="epsilon"):
            rpm_spectra(params, [0.0, 1.0], bad)
    with pytest.raises(ValueError):
        rpm_spectra(params, [], 0.01)


def test_chain_densities_match_the_recursion_at_n_3000():
    """The densities broadened from the parity chains against the
    recursion's at the N of the ``oracle-n3000`` benchmark, well past the
    N <= 60 above: the chains and the recursion share no code."""
    params = ModelParams(n_photons=3000, omega0=1.0, g=1.2, j_tun=0.8)
    h = build_sector_hamiltonian(params)
    reach = 2.0 * float(np.max(np.abs(h.offdiag)))
    grid = np.linspace(h.diag.min() - reach, h.diag.max() + reach, 801)
    chains = smoothed_density(*parity_chain_spectra(h), grid, 0.01)
    for rho_r, rho_c in zip(rpm_spectra(params, grid, 0.01), chains):
        assert np.max(np.abs(rho_r - rho_c)) <= 1e-9
