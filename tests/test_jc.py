"""Single-cavity model: dressed energies, Rabi dynamics, ladder elements."""

import math

import numpy as np
import pytest

from cavity_rpm.core import ModelParams, edge_lines
from cavity_rpm.dynamics import evolve
from cavity_rpm.jc import (
    dressed_photon_matrix_element,
    jc_energy,
    rabi_amplitudes,
    rabi_line_spectra,
)


def pair_block(params, n):
    """2x2 matrix on {|n, excited>, |n+1, ground>} whose eigenvalues are the
    dressed energies; diagonalized independently of the closed form."""
    center = params.omega0 * (n + 0.5)
    coupling = 2.0 * params.g * math.sqrt(n + 1.0)
    return np.array([[center, coupling], [coupling, center]])


def test_energy_matches_block_eigenvalues():
    for n in (0, 1, 5, 30):
        for g in (0.0, 0.7, 1.2):
            params = ModelParams(n_photons=1, omega0=1.0, g=g)
            oracle = np.linalg.eigvalsh(pair_block(params, n))
            assert jc_energy(params, n, -1) == pytest.approx(oracle[0], abs=1e-12)
            assert jc_energy(params, n, +1) == pytest.approx(oracle[1], abs=1e-12)


def test_energy_known_values():
    params = ModelParams(n_photons=1, omega0=1.0, g=1.2)
    assert jc_energy(params, 2, +1) == pytest.approx(6.656921938165306, abs=1e-14)
    assert jc_energy(params, 2, -1) == pytest.approx(-1.656921938165306, abs=1e-14)


def test_energy_rejects_bad_arguments():
    params = ModelParams(n_photons=1, g=1.0)
    with pytest.raises(ValueError):
        jc_energy(params, -1, 1)
    with pytest.raises(ValueError):
        jc_energy(params, 2, 0)


def test_rabi_conservation_and_node():
    t = np.linspace(0.0, 10.0, 4001)
    for n in (1, 4, 9):
        ret, tra = rabi_amplitudes(ModelParams(n_photons=n, omega0=1.0, g=1.2), t)
        total = np.abs(ret.values) ** 2 + np.abs(tra.values) ** 2
        np.testing.assert_allclose(total, 1.0, atol=1e-12)
    # quarter Rabi period: population fully transferred
    n = 4
    params = ModelParams(n_photons=n, omega0=1.0, g=1.2)
    t_node = math.pi / (4.0 * params.g * math.sqrt(n))
    ret, tra = rabi_amplitudes(params, [t_node])
    assert abs(ret.values[0]) < 1e-15
    assert abs(tra.values[0]) == pytest.approx(1.0, abs=1e-14)


def test_rabi_transition_phase_direction():
    # for small positive t the transition starts along -i
    params = ModelParams(n_photons=1, omega0=0.0, g=0.5)
    _, tra = rabi_amplitudes(params, [0.01])
    assert tra.values[0].imag < 0
    assert abs(tra.values[0].real) < 1e-6


def test_rabi_line_spectra_start_from_n_photons():
    """The initial Fock state is the one of params.n_photons."""
    for n in (1, 4, 9):
        energies, _, _ = edge_lines(*rabi_line_spectra(
            ModelParams(n_photons=n, omega0=1.0, g=0.5)))
        expected = [n - 0.5 - math.sqrt(n), n - 0.5 + math.sqrt(n)]
        np.testing.assert_allclose(energies, expected, rtol=0, atol=1e-14)


@pytest.mark.parametrize("g", [1.2, -0.7])
@pytest.mark.parametrize("omega0", [0.0, 1.0])
def test_line_spectra_synthesize_closed_forms(g, omega0):
    for n in (1, 4, 9):
        params = ModelParams(n_photons=n, omega0=omega0, g=g)
        ret_s, tra_s = evolve(*rabi_line_spectra(params), 12.0, 0.01)
        ret_c, tra_c = rabi_amplitudes(params, ret_s.times)
        np.testing.assert_allclose(ret_s.values, ret_c.values, atol=1e-12)
        np.testing.assert_allclose(tra_s.values, tra_c.values, atol=1e-12)


def test_line_spectra_merge_at_zero_coupling():
    energies, w00, wn0 = edge_lines(*rabi_line_spectra(
        ModelParams(n_photons=2, omega0=1.0, g=0.0)))
    assert energies.size == 1
    assert w00[0] == pytest.approx(1.0)
    assert wn0[0] == pytest.approx(0.0, abs=1e-15)


def test_matrix_element_known_values():
    root2, root3 = math.sqrt(2.0), math.sqrt(3.0)
    assert dressed_photon_matrix_element("annihilate", 1, 1, 1) == pytest.approx((root2 + 1) / 2)
    assert dressed_photon_matrix_element("annihilate", 1, 1, -1) == pytest.approx((root2 - 1) / 2)
    assert dressed_photon_matrix_element("create", 1, -1, -1) == pytest.approx((root3 + root2) / 2)
    assert dressed_photon_matrix_element("create", 1, -1, 1) == pytest.approx((root3 - root2) / 2)


def test_matrix_element_brute_force():
    """Inner products in an explicit product basis reproduce the table.

    Annihilation connects dressed level k to k-1; creation connects k to
    k+1 (a creation bra at k-1 would vanish on photon-number grounds).
    """
    def dressed_vector(dim, n, branch):
        v = np.zeros(2 * dim)
        v[2 * n + 1] = branch / math.sqrt(2.0)   # |n photons, excited>
        v[2 * (n + 1)] = 1.0 / math.sqrt(2.0)    # |n+1 photons, ground>
        return v

    for k in (1, 2, 3, 7):
        dim = k + 4
        lower = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
        for op_kind, op, bra_n in (("annihilate", lower, k - 1), ("create", lower.T, k + 1)):
            full = np.kron(op, np.eye(2))
            for b_out in (1, -1):
                for b_in in (1, -1):
                    ref = dressed_vector(dim, bra_n, b_out) @ full @ dressed_vector(dim, k, b_in)
                    val = dressed_photon_matrix_element(op_kind, k, b_out, b_in)
                    assert val == pytest.approx(ref, abs=1e-13)


def test_branch_flips_suppressed_at_large_k():
    ks = np.array([10, 100, 1000, 10000])
    ratios = [
        dressed_photon_matrix_element("annihilate", int(k), 1, -1)
        / dressed_photon_matrix_element("annihilate", int(k), 1, 1)
        for k in ks
    ]
    assert all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:]))
    # asymptotically 1/(4k)
    assert ratios[-1] == pytest.approx(1.0 / (4.0 * ks[-1]), rel=1e-3)


def test_matrix_element_rejects_bad_arguments():
    with pytest.raises(ValueError):
        dressed_photon_matrix_element("annihilate", 0, 1, 1)
    with pytest.raises(ValueError):
        dressed_photon_matrix_element("destroy", 1, 1, 1)
    with pytest.raises(ValueError):
        dressed_photon_matrix_element("create", 1, 2, 1)
