"""Sector Hamiltonian assembly and exact diagonalization."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cavity_rpm.core import (
    LineSpectrum,
    ModelParams,
    NumericalFailureError,
    edge_lines,
    merge_degenerate_lines,
)
from cavity_rpm.effective import (
    EigenDecomposition,
    SectorHamiltonian,
    build_sector_hamiltonian,
    diagonalize,
    parity_chain_spectra,
    spectra_from_eigen,
)
from cavity_rpm.harmonic import harmonic_line_spectra


def fock_sector_oracle(params):
    """Sector matrix assembled from explicit two-mode Fock-space operators.

    Independent construction: build number and ladder operators on the
    full (N+1)^2 product space, add the square-root interaction through a
    diagonal operator function, then restrict to the fixed-N sector in
    the |N-k, k> order.
    """
    n = params.n_photons
    dim = n + 1
    lower = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    eye = np.eye(dim)
    a1 = np.kron(lower, eye)
    a2 = np.kron(eye, lower)
    num1 = a1.T @ a1
    num2 = a2.T @ a2
    sqrt1 = np.kron(np.diag(np.sqrt(np.arange(dim, dtype=float))), eye)
    sqrt2 = np.kron(eye, np.diag(np.sqrt(np.arange(dim, dtype=float))))
    h_full = (
        params.omega0 * (num1 + num2)
        + 2.0 * params.sigma * params.g * (sqrt1 + sqrt2)
        - params.j_tun * (a1.T @ a2 + a2.T @ a1)
    )
    idx = [(n - k) * dim + k for k in range(n + 1)]
    return h_full[np.ix_(idx, idx)]


@pytest.mark.parametrize("n", [1, 2, 3, 6, 8])
def test_sector_matrix_matches_fock_oracle(n):
    params = ModelParams(n_photons=n, omega0=1.0, g=1.2, j_tun=0.8, sigma=-1)
    built = build_sector_hamiltonian(params).dense()
    np.testing.assert_allclose(built, fock_sector_oracle(params), atol=1e-12)


def test_single_photon_sector():
    params = ModelParams(n_photons=1, omega0=0.0, g=0.0, j_tun=0.7)
    h = build_sector_hamiltonian(params)
    np.testing.assert_array_equal(h.dense(), [[0.0, -0.7], [-0.7, 0.0]])


def test_two_photon_diagonal():
    g = 0.9
    params = ModelParams(n_photons=2, omega0=0.0, g=g, j_tun=0.4)
    h = build_sector_hamiltonian(params)
    root8 = 2.0 * math.sqrt(2.0)
    np.testing.assert_allclose(h.diag, [root8 * g, 4.0 * g, root8 * g], atol=1e-15)
    np.testing.assert_allclose(h.offdiag, [-0.4 * math.sqrt(2.0)] * 2, atol=1e-15)


def test_hamiltonian_rejects_asymmetric_input():
    with pytest.raises(ValueError, match="exchange"):
        SectorHamiltonian(diag=[0.0, 1.0, 2.0], offdiag=[1.0, 1.0])
    with pytest.raises(ValueError, match="exchange"):
        SectorHamiltonian(diag=[0.0, 1.0, 0.0], offdiag=[1.0, 2.0])
    with pytest.raises(ValueError, match="entries"):
        SectorHamiltonian(diag=[0.0, 0.0], offdiag=[1.0, 1.0])


def test_eigensystem_quality():
    params = ModelParams(n_photons=20, omega0=1.0, g=1.2, j_tun=0.8)
    h = build_sector_hamiltonian(params)
    decomp = diagonalize(h)
    assert np.all(np.diff(decomp.energies) > 0)
    v = decomp.vectors
    gram = v.T @ v
    np.testing.assert_allclose(gram, np.eye(21), atol=1e-10)
    residual = h.dense() @ v - v * decomp.energies[None, :]
    scale = float(np.max(np.abs(decomp.energies)))
    assert float(np.max(np.abs(residual))) <= 1e-9 * scale


def test_weights_do_not_depend_on_eigenvector_signs():
    rng = np.random.default_rng(3)
    for n, g, j in ((10, 0.7, 0.5), (11, 1.2, 0.8), (20, -0.4, 0.05), (6, 1.2, 0.0)):
        decomp = diagonalize(build_sector_hamiltonian(
            ModelParams(n_photons=n, omega0=1.0, g=g, j_tun=j)))
        signs = np.where(rng.random(n + 1) < 0.5, -1.0, 1.0)
        flipped = EigenDecomposition(energies=decomp.energies, vectors=decomp.vectors * signs)
        for column, ref in zip(spectra_from_eigen(flipped), spectra_from_eigen(decomp)):
            assert column.tobytes() == ref.tobytes()


def test_eigenvalues_match_dense_solver():
    for n in (4, 9, 14):
        params = ModelParams(n_photons=n, omega0=1.0, g=1.2, j_tun=0.8, sigma=-1)
        h = build_sector_hamiltonian(params)
        decomp = diagonalize(h)
        np.testing.assert_allclose(
            decomp.energies, np.linalg.eigvalsh(h.dense()), atol=1e-10)


def test_zero_tunneling_pairs_levels():
    params = ModelParams(n_photons=10, omega0=1.0, g=1.2, j_tun=0.0)
    decomp = diagonalize(build_sector_hamiltonian(params))
    _, counts = np.unique(decomp.energies, return_counts=True)
    assert sorted(counts) == [1] + [2] * 5


def test_parity_of_weights():
    """Exchange parity forces |cross weight| = diagonal weight line by line."""
    params = ModelParams(n_photons=12, omega0=1.0, g=1.2, j_tun=0.8)
    _, w00, wn0 = spectra_from_eigen(diagonalize(build_sector_hamiltonian(params)))
    defect = np.minimum(np.abs(wn0 - w00), np.abs(wn0 + w00))
    assert float(np.max(defect)) < 1e-10


def test_zero_coupling_reduces_to_harmonic():
    for n in (2, 8):
        params = ModelParams(n_photons=n, omega0=1.0, g=0.0, j_tun=0.8)
        oracle = spectra_from_eigen(diagonalize(build_sector_hamiltonian(params)))
        closed = edge_lines(*harmonic_line_spectra(params))
        for column, ref in zip(oracle, closed):
            np.testing.assert_allclose(column, ref, atol=1e-12)


def test_fully_degenerate_sector_gives_single_line():
    params = ModelParams(n_photons=4, omega0=1.0, g=0.0, j_tun=0.0)
    energies, w00, wn0 = spectra_from_eigen(diagonalize(build_sector_hamiltonian(params)))
    assert energies.size == 1
    assert w00[0] == pytest.approx(1.0)
    assert abs(wn0[0]) < 1e-14
    # the chains give one line per half, and their table the same single line
    sym, anti = parity_chain_spectra(build_sector_hamiltonian(params))
    assert len(sym) == len(anti) == 1
    assert [column.tolist() for column in edge_lines(sym, anti)] == [[4.0], [1.0], [0.0]]


def _assert_chains_match_oracle(h):
    """The table of the parity-chain halves against the dense eigenvectors' table.

    Energies agree to 1e-12 of the matrix scale.  Weights agree to 1e-12
    plus the error of the oracle itself: a dense eigenvector is off by about
    eps * scale / gap from its neighbours, which near a parity doublet is far
    above 1e-12 (see test_chains_resolve_doublets_the_dense_vectors_mix).
    """
    oracle_e, oracle00, oraclen0 = spectra_from_eigen(diagonalize(h))
    chain_e, chain00, chainn0 = edge_lines(*parity_chain_spectra(h))
    assert chain_e.size == oracle_e.size
    scale = 1.0 + np.max(np.abs(h.diag)) + 2.0 * np.max(np.abs(h.offdiag), initial=0.0)
    np.testing.assert_allclose(chain_e, oracle_e, rtol=0, atol=1e-12 * scale)
    gap = np.minimum(np.diff(oracle_e, prepend=-np.inf), np.diff(oracle_e, append=np.inf))
    tol = 1e-12 + np.finfo(float).eps * scale / gap
    assert np.all(np.abs(chain00 - oracle00) <= tol)
    assert np.all(np.abs(chainn0 - oraclen0) <= tol)
    return chain00, chainn0


@settings(deadline=None)
@given(
    n=st.integers(1, 400),
    g=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
    j=st.one_of(st.just(0.0), st.floats(0.01, 2.0)),
    sigma=st.sampled_from([1, -1]),
    omega0=st.sampled_from([0.0, 1.0]),
)
def test_parity_chains_match_dense_eigenvectors(n, g, j, sigma, omega0):
    params = ModelParams(n_photons=n, omega0=omega0, g=g, j_tun=j, sigma=sigma)
    _assert_chains_match_oracle(build_sector_hamiltonian(params))


@pytest.mark.parametrize("n,g,j", [
    (1, 1.2, 0.8), (2, 1.2, 0.8), (1, 0.0, 0.7), (2, 0.0, 0.0), (3, 1.2, 0.0),
    (10, 0.0, 0.0), (10, 1.2, 0.0), (11, 1.2, 0.0),
])
def test_parity_chains_small_and_decoupled_cases(n, g, j):
    params = ModelParams(n_photons=n, omega0=1.0, g=g, j_tun=j)
    chain00, chainn0 = _assert_chains_match_oracle(build_sector_hamiltonian(params))
    if j == 0:
        # the edge state is an eigenvector: all weight on one line, none across
        assert np.count_nonzero(chain00) == 1
        np.testing.assert_array_equal(chainn0, 0)


def test_parity_chains_resolve_doublets_the_dense_vectors_mix():
    """Near a parity doublet the dense eigenvectors mix the two parities by
    eps * scale / gap; the chains keep them apart and match 40-digit
    arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    params = ModelParams(n_photons=18, omega0=0.0, g=-0.2, j_tun=0.03, sigma=1)
    h = build_sector_hamiltonian(params)
    with mpmath.workdps(40):
        a = mpmath.matrix(h.dense().tolist())
        energies, vectors = mpmath.eigsy(a)
        exact00 = [float(vectors[0, k] ** 2) for k in range(h.n_photons + 1)]
        exact_e = [float(x) for x in energies]
    _, (exact,) = merge_degenerate_lines(exact_e, [exact00])
    _, chain00, _ = edge_lines(*parity_chain_spectra(h))
    _, oracle00, _ = spectra_from_eigen(diagonalize(h))
    assert np.max(np.abs(chain00 - exact)) < 1e-14
    assert np.max(np.abs(oracle00 - exact)) > 1e-10


def test_parity_chains_unresolvable_weights_raise_numerical_failure():
    # the chain's last two states are coupled below rounding: its eigenvalues
    # coincide and the interlacing product reads 0/0
    h = SectorHamiltonian(diag=[0.0, 1.0, 1.0, 1.0, 0.0],
                          offdiag=[1e-9, 1e-300, 1e-300, 1e-9])
    with pytest.raises(NumericalFailureError, match="parity-chain"):
        parity_chain_spectra(h)


def test_parity_chains_run_in_linear_memory():
    params = ModelParams(n_photons=10_000, omega0=1.0, g=1.2, j_tun=0.8)
    h = build_sector_hamiltonian(params)
    tracemalloc.start()
    try:
        sym, anti = parity_chain_spectra(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(sym), len(anti)) == (5001, 5000)
    assert peak < 64e6


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 40),
    g=st.floats(0.01, 2.0),
    j=st.floats(0.01, 2.0),
    omega0=st.floats(-2.0, 2.0),
    sigma=st.sampled_from([1, -1]),
)
def test_parity_halves_are_line_spectra_that_merge_to_the_oracle(n, g, j, omega0, sigma):
    """Each half is a valid line spectrum of N//2 + 1 or (N+1)//2 lines, and
    their table matches the parity-blind dense table.  Near a doublet the
    dense eigenvectors mix the two parities (see the test above), so only
    configurations whose halves stay apart by more than 1e-6 are compared."""
    h = build_sector_hamiltonian(
        ModelParams(n_photons=n, omega0=omega0, g=g, j_tun=j, sigma=sigma))
    sym, anti = parity_chain_spectra(h)
    for half, lines in ((sym, n // 2 + 1), (anti, (n + 1) // 2)):
        assert isinstance(half, LineSpectrum) and len(half) == lines
        assert np.all(np.diff(half.energies) > 0) and np.all(half.weights >= 0)
        assert abs(float(np.sum(half.weights)) - 1.0) <= 1e-10
    assume(np.min(np.abs(sym.energies[:, None] - anti.energies[None, :])) > 1e-6)
    table = edge_lines(sym, anti)
    oracle = spectra_from_eigen(diagonalize(h))
    if table[0].size == oracle[0].size:
        for column, ref in zip(table, oracle):
            np.testing.assert_allclose(column, ref, rtol=0, atol=1e-9)
