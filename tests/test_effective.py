"""Sector Hamiltonian assembly and exact diagonalization."""

import itertools
import math
import threading
import tracemalloc

import numpy as np
import scipy.linalg
import pytest
from click.testing import CliRunner
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cavity_rpm import effective
from cavity_rpm.cli import main
from cavity_rpm.core import (
    LineSpectrum,
    ModelParams,
    NumericalFailureError,
    _merge_equal_levels,
    edge_lines,
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

from sector_matrix import dense


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
    built = dense(build_sector_hamiltonian(params))
    np.testing.assert_allclose(built, fock_sector_oracle(params), atol=1e-12)


def test_single_photon_sector():
    params = ModelParams(n_photons=1, omega0=0.0, g=0.0, j_tun=0.7)
    h = build_sector_hamiltonian(params)
    np.testing.assert_array_equal(dense(h), [[0.0, -0.7], [-0.7, 0.0]])


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


@pytest.mark.parametrize("build, name", [
    (lambda dev: ([dev, 0.0, 0.0], [0.0, 0.0]), "diagonal"),
    (lambda dev: ([0.0, 0.0, 0.0], [dev, 0.0]), "off-diagonal"),
    # the tolerance scales with the largest entry, here an off-diagonal 4
    (lambda dev: ([4.0 * dev, 0.0, 0.0], [4.0, 4.0]), "diagonal"),
], ids=["diagonal", "off-diagonal", "scaled"])
def test_exchange_symmetry_tolerance_is_1e_12_of_the_largest_entry(build, name):
    SectorHamiltonian(*build(1e-12))
    with pytest.raises(ValueError, match=f"^{name} breaks cavity-exchange symmetry$"):
        SectorHamiltonian(*build(2e-12))


@pytest.mark.parametrize("diag, offdiag", [
    ([math.nan, 0.0, math.nan], [1.0, 1.0]),
    ([0.0, 0.0, 0.0], [math.nan, math.nan]),
    ([math.inf, math.inf, math.inf], [1.0, 1.0]),
    ([0.0, 0.0, 0.0], [-math.inf, -math.inf]),
], ids=["nan-diagonal", "nan-off-diagonal", "inf-diagonal", "inf-off-diagonal"])
def test_hamiltonian_refuses_non_finite_entries_by_name(diag, offdiag):
    """Mirror-symmetric but not finite: refused as an overflow, not passed on."""
    with pytest.raises(ValueError, match="^sector matrix overflowed"):
        SectorHamiltonian(diag=diag, offdiag=offdiag)


def test_one_state_hamiltonian_has_an_empty_off_diagonal():
    h = SectorHamiltonian(diag=[2.5], offdiag=[])
    assert h.n_photons == 0 and h.offdiag.shape == (0,)


def test_eigensystem_quality():
    params = ModelParams(n_photons=20, omega0=1.0, g=1.2, j_tun=0.8)
    h = build_sector_hamiltonian(params)
    decomp = diagonalize(h)
    assert np.all(np.diff(decomp.energies) > 0)
    v = decomp.vectors
    gram = v.T @ v
    np.testing.assert_allclose(gram, np.eye(21), atol=1e-10)
    residual = dense(h) @ v - v * decomp.energies[None, :]
    scale = float(np.max(np.abs(decomp.energies)))
    assert float(np.max(np.abs(residual))) <= 1e-9 * scale


def test_decomposition_rejects_bad_input():
    with pytest.raises(ValueError, match="square"):
        EigenDecomposition(energies=[0.0, 1.0], vectors=np.eye(3))
    # the oracle's clustering reads consecutive gaps, so descending input
    # would fall into one line
    # equal infinities too, which a comparison e[1:] >= e[:-1] would take;
    # their difference is NaN, with NumPy's invalid-value warning
    for energies in ([1.0, 0.0], [math.inf, math.inf], [-math.inf, -math.inf],
                     [0.0, math.nan]):
        with pytest.raises(ValueError, match="ascending"), np.errstate(invalid="ignore"):
            EigenDecomposition(energies=energies, vectors=np.eye(2))


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
            decomp.energies, np.linalg.eigvalsh(dense(h)), atol=1e-10)


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


def _assert_matches_oracle(h, table, factor=1):
    """A line table of ``h`` against the dense eigenvectors' table.

    Energies agree to 1e-12 of the matrix scale.  Weights agree to 1e-12
    plus the error of the oracle itself: a dense eigenvector is off by about
    eps * scale / gap from its neighbours, which near a parity doublet is far
    above 1e-12 (see test_parity_chains_resolve_doublets_the_dense_vectors_mix).
    ``factor`` widens that error term.
    """
    oracle_e, oracle00, oraclen0 = spectra_from_eigen(diagonalize(h))
    chain_e, chain00, chainn0 = table
    assert chain_e.size == oracle_e.size
    scale = 1.0 + np.max(np.abs(h.diag)) + 2.0 * np.max(np.abs(h.offdiag), initial=0.0)
    np.testing.assert_allclose(chain_e, oracle_e, rtol=0, atol=1e-12 * scale)
    gap = np.minimum(np.diff(oracle_e, prepend=-np.inf), np.diff(oracle_e, append=np.inf))
    tol = 1e-12 + factor * np.finfo(float).eps * scale / gap
    assert np.all(np.abs(chain00 - oracle00) <= tol)
    assert np.all(np.abs(chainn0 - oraclen0) <= tol)
    return chain00, chainn0


def _assert_chains_match_oracle(h):
    """The lines of the parity-chain halves against the dense oracle's table.

    The oracle takes levels closer than ``MERGE_RTOL`` as one line, at the
    mean of its eigenvalues, which the chains keep apart; so the halves'
    lines are clustered by the oracle's rule first, each line once per half
    that holds it, as the dense solver counts it.
    """
    sym, anti = parity_chain_spectra(h)
    energies = np.concatenate([sym.energies, anti.energies])
    order = np.argsort(energies, kind="stable")
    w = np.concatenate([sym.weights, anti.weights])[order] / 2
    sign = np.concatenate([np.ones(len(sym)), -np.ones(len(anti))])[order]
    return _assert_matches_oracle(
        h, effective._merge_close_levels(energies[order], w, sign * w))


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
        a = mpmath.matrix(dense(h).tolist())
        energies, vectors = mpmath.eigsy(a)
        # ascending and unmerged, as the tables of both routes are here
        assert all(lo < hi for lo, hi in zip(energies, energies[1:]))
        exact00 = np.array([float(vectors[0, k] ** 2) for k in range(h.n_photons + 1)])
    _, chain00, _ = edge_lines(*parity_chain_spectra(h))
    _, oracle00, _ = spectra_from_eigen(diagonalize(h))
    assert np.max(np.abs(chain00 - exact00)) < 1e-14
    assert np.max(np.abs(oracle00 - exact00)) > 1e-10


def test_parity_chains_unresolvable_weights_raise_numerical_failure():
    # the chain's last two states are coupled below rounding: its eigenvalues
    # coincide and the interlacing product reads 0/0
    h = SectorHamiltonian(diag=[0.0, 1.0, 1.0, 1.0, 0.0],
                          offdiag=[1e-9, 1e-300, 1e-300, 1e-9])
    with pytest.raises(NumericalFailureError, match="parity-chain"):
        parity_chain_spectra(h)


def test_eigensolver_failure_is_a_numerical_failure(monkeypatch, tmp_path):
    """A nonzero LAPACK ``info``, set after a real call of the ``dstevd``
    binding, raises NumericalFailureError on the dense route and on the
    serial parity chains.  Above ``_CONCURRENT_ROWS`` only the worker
    thread's eigensolve fails, and its error still reaches the caller and
    makes the command line exit 3.  No call leaves a thread behind."""
    binding = effective._lapack_dstevd()
    caller = threading.get_ident()

    def fail(where):
        def failing(*args):
            binding(*args)
            if where():
                args[-1].value = 1
        monkeypatch.setattr(effective, "_lapack_dstevd", lambda: failing)

    threads = threading.active_count()
    small = build_sector_hamiltonian(ModelParams(n_photons=6, omega0=1.0, g=1.2, j_tun=0.8))
    fail(lambda: True)
    for route in (diagonalize, parity_chain_spectra):
        with pytest.raises(NumericalFailureError, match="dstevd info=1"):
            route(small)
        assert threading.active_count() == threads
    n = 2 * effective._CONCURRENT_ROWS
    fail(lambda: threading.get_ident() != caller)
    with pytest.raises(NumericalFailureError, match="dstevd info=1"):
        parity_chain_spectra(build_sector_hamiltonian(
            ModelParams(n_photons=n, omega0=1.0, g=1.2, j_tun=0.8)))
    assert threading.active_count() == threads
    result = CliRunner().invoke(main, ["spectrum", "--model", "anharmonic-oracle",
                                       "--N", str(n), "--out", str(tmp_path)])
    assert result.exit_code == 3
    assert "dstevd info=1" in result.output
    assert threading.active_count() == threads


def _recorded_chain_eigenvalues(monkeypatch):
    """``(d, e, eigenvalues)`` of each chain eigensolve from here on, on any
    thread."""
    calls = []
    solve = effective._chain_eigenvalues

    def recorded(d, e):
        lam = solve(d, e)
        calls.append((d, e, lam))
        return lam

    monkeypatch.setattr(effective, "_chain_eigenvalues", recorded)
    return calls


BELOW_THRESHOLD = 2 * effective._CONCURRENT_ROWS - 4
AT_THRESHOLD = 2 * effective._CONCURRENT_ROWS - 2


@pytest.mark.parametrize("n, g, j, omega0", [
    (100, 1.2, 0.8, 1.0), (101, 1.2, 0.8, 1.0),
    (BELOW_THRESHOLD, 1.2, 0.8, 1.0), (AT_THRESHOLD, 1.2, 0.8, 1.0),
    (AT_THRESHOLD + 1, 1.2, 0.8, 1.0), (3000, 1.2, 0.8, 1.0),
    (20, 0.0, 1e-300, 0.0), (20, 0.0, 1e300, 0.0),
    (AT_THRESHOLD, 0.0, 1e-300, 0.0), (AT_THRESHOLD, 0.0, 1e300, 0.0),
])
def test_chain_eigenvalues_equal_the_f2py_dstevd(monkeypatch, n, g, j, omega0):
    """Serial and on two threads, the binding's eigenvalues are those of
    SciPy's f2py ``dstevd`` bit for bit, also where ``dsterf`` scales a
    chain of norm 1e-300 or 1e300."""
    from scipy.linalg import lapack

    calls = _recorded_chain_eigenvalues(monkeypatch)
    parity_chain_spectra(build_sector_hamiltonian(
        ModelParams(n_photons=n, omega0=omega0, g=g, j_tun=j)))
    assert sorted(d.size for d, _, _ in calls) == [(n + 1) // 2, n // 2 + 1]
    for d, e, lam in calls:
        reference, _, info = lapack.dstevd(d, e, compute_v=0)
        assert info == 0
        assert lam.tobytes() == reference.tobytes()


@pytest.mark.parametrize("n", [1, 2, 7, 100, 101])
def test_dense_eigenpairs_equal_the_f2py_dstevd(n):
    from scipy.linalg import lapack

    h = build_sector_hamiltonian(ModelParams(n_photons=n, omega0=1.0, g=1.2, j_tun=0.8))
    decomp = diagonalize(h)
    energies, vectors, info = lapack.dstevd(h.diag, h.offdiag, compute_v=1)
    assert info == 0
    assert decomp.energies.tobytes() == energies.tobytes()
    assert decomp.vectors.tobytes("A") == vectors.tobytes("A")
    assert decomp.vectors.flags.f_contiguous


def test_eigensolver_refuses_a_short_off_diagonal():
    """LAPACK would read n - 1 couplings past the end of a shorter buffer."""
    with pytest.raises(ValueError, match="n - 1 off-diagonal"):
        effective._eigh_tridiagonal(np.zeros(3), np.ones(1), vectors=False)


@pytest.mark.parametrize("n, j", [(6, 0.8), (101, 0.8), (AT_THRESHOLD, 0.8),
                                  (3000, 0.8), (101, 0.0), (AT_THRESHOLD + 1, 0.0)])
def test_concurrent_and_serial_chains_give_the_same_bytes(monkeypatch, n, j):
    """The same input through both paths, with the threshold at one row and
    above every chain, at J = 0 too, where one eigensolve takes the chain
    without its decoupled first state."""
    h = build_sector_hamiltonian(ModelParams(n_photons=n, omega0=1.0, g=1.2, j_tun=j))
    halves = []
    for rows in (1, n + 2):
        monkeypatch.setattr(effective, "_CONCURRENT_ROWS", rows)
        halves.append([(half.energies.tobytes(), half.weights.tobytes())
                       for half in parity_chain_spectra(h)])
    assert halves[0] == halves[1]


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
# the dense weights are off by 1.84 eps * scale / gap here
@example(n=13, g=1.0882125790414643, j=0.15038066769833017, omega0=-0.7530149855948824, sigma=1)
def test_parity_halves_are_line_spectra_that_merge_to_the_oracle(n, g, j, omega0, sigma):
    """Each half is a valid line spectrum of N//2 + 1 or (N+1)//2 lines, and
    their table matches the parity-blind dense table.  The oracle takes
    levels closer than ``MERGE_RTOL`` as one line, so only configurations
    whose halves stay apart by more than 1e-6 are compared; near a doublet
    the weights agree within the oracle's own error.  These draws come
    closer to doublets than those of the chain tests above, and in about 2
    of 10,000 the dense error exceeds eps * scale / gap (by up to 1.84
    times), so it is taken with a factor 4."""
    h = build_sector_hamiltonian(
        ModelParams(n_photons=n, omega0=omega0, g=g, j_tun=j, sigma=sigma))
    sym, anti = parity_chain_spectra(h)
    for half, lines in ((sym, n // 2 + 1), (anti, (n + 1) // 2)):
        assert isinstance(half, LineSpectrum) and len(half) == lines
        assert np.all(np.diff(half.energies) > 0) and np.all(half.weights >= 0)
        assert abs(float(np.sum(half.weights)) - 1.0) <= 1e-10
    assume(np.min(np.abs(sym.energies[:, None] - anti.energies[None, :])) > 1e-6)
    _assert_matches_oracle(h, edge_lines(sym, anti), factor=4)


def where_form_chain_weights(d, e):
    """The interlacing product in one piece, its pairing chosen by np.where:
    the eigenvalues of the chain and of the chain without its first row."""
    lam = scipy.linalg.eigvalsh_tridiagonal(d, e)
    mu = scipy.linalg.eigvalsh_tridiagonal(d[1:], e[1:])
    j = np.arange(lam.size)[:, None]
    paired = np.where(np.arange(lam.size - 1) < j, lam[:-1], lam[1:])
    x = lam[:, None]
    return lam, np.prod(np.abs((x - mu) / (x - paired)), axis=1)


def chain_lines(d, e):
    """``_chain_lines`` of the chain ``(d, e)`` with its own eigensolve."""
    lam = effective._chain_eigenvalues(*effective._solved_chain(d, e))
    return effective._chain_lines(d, e, lam)


def _assert_sweep_matches_the_where_form(d, e):
    """The chain's eigenvalues bit for bit, and its pivot-sweep weights,
    which ``_chain_lines`` has checked to sum to 1, within 5 n eps of the
    interlacing product's.  The largest difference measured on the chains
    of these tests is 1.8 n eps (3.9e-13 at n = 1000), about as far as
    either route lies from extended-precision weights."""
    lam, weights = chain_lines(d, e)
    lam_ref, weights_ref = where_form_chain_weights(d, e)
    assert np.array_equal(lam, lam_ref)
    assert np.all(np.isfinite(weights))
    tol = 5 * lam.size * np.finfo(float).eps
    np.testing.assert_allclose(weights, weights_ref, rtol=0, atol=tol)


@pytest.mark.parametrize("depths", [1, 2, 7, 2**15])
@pytest.mark.parametrize("n", [2, 3, 4, 9, 64, 181, 182, 183, 1000])
def test_chain_weights_equal_the_where_form(monkeypatch, depths, n):
    """Rescaling the running products at every depth, every other, at a
    stride that leaves a partial last run, or never: the sweep matches the
    interlacing product, and bit for bit the sweep at the default stride,
    since a rescaling by a power of two rounds nothing."""
    rng = np.random.default_rng(n)
    d = np.sort(rng.uniform(-3.0, 3.0, n))
    e = rng.uniform(0.2, 1.0, n - 1)
    _, weights_default = chain_lines(d, e)
    monkeypatch.setattr(effective, "_RESCALE_DEPTHS", depths)
    _assert_sweep_matches_the_where_form(d, e)
    assert np.array_equal(chain_lines(d, e)[1], weights_default)


@pytest.mark.parametrize("n, g, j, omega0", [
    (64, 0.0, 1e-9, 1.0), (65, 0.0, 1e-12, 1.0), (64, 0.0, 1e-17, 1.0),
    (101, 0.0, 0.8, 1.0), (21, 1.2, 0.8, 1.0), (20, 2.0, 0.2, 0.0),
], ids=["j1e-9", "j1e-12-odd", "j1e-17", "g0-odd", "odd", "doublet"])
def test_parity_chain_weights_equal_the_where_form(n, g, j, omega0):
    """Tunneling far below the level spacing, the harmonic limit g = 0, odd
    N, and the chains of the N=20 edge doublet (g=2, J=0.2, omega0=0): the
    sweep gives finite weights that sum to 1 and match the interlacing
    product."""
    h = build_sector_hamiltonian(ModelParams(n_photons=n, omega0=omega0, g=g, j_tun=j))
    _, *chains = effective._parity_chains(h)
    for d, e in chains:
        _assert_sweep_matches_the_where_form(d, e)


def unique_form_halves(h):
    """The parity halves with a decoupled first state merged, sorted, by
    ``np.unique(..., return_index=True)`` before core's merge: the reference
    for ``_chain_lines``, which leaves that merge to core alone."""
    centre, *chains = effective._parity_chains(h)
    halves = []
    for d, e in chains:
        lam = effective._chain_eigenvalues(*effective._solved_chain(d, e))
        if lam.size < d.size:
            lam, first = np.unique(np.concatenate([d[:1], lam]), return_index=True)
            weights = np.where(first == 0, 1.0, 0.0)
        else:
            lam, weights = effective._chain_lines(d, e, lam)
        halves.append(_merge_equal_levels(lam + centre, weights))
    return halves


def test_decoupled_chains_equal_the_unique_form_bit_for_bit():
    """Where J = 0, or a chain holds one state, the first state is an
    eigenvector of its own.  Core's merge of its level with the solved
    chain's gives the bits of the ``np.unique`` form, signed zeros included,
    over N = 1..41 and every combination of the parameters below."""
    for n, g, j, omega0, sigma in itertools.product(
            range(1, 42), (0.0, 1.2, -0.7, 1e-9), (0.0, 1e-17, 0.8), (0.0, -0.0, 1.0, -3.0),
            (1, -1)):
        params = ModelParams(n_photons=n, omega0=omega0, g=g, j_tun=j, sigma=sigma)
        h = build_sector_hamiltonian(params)
        for half, (energies, weights) in zip(parity_chain_spectra(h), unique_form_halves(h)):
            assert half.energies.tobytes() == energies.tobytes(), params
            assert half.weights.tobytes() == weights.tobytes(), params


@pytest.mark.parametrize("j", [1e-300, 1e300])
def test_parity_chain_weights_hold_at_any_scale(j):
    """At g = 0 the chains are J times fixed matrices, and their weights the
    binomial ones at any J: squared couplings of 1e-300 or 1e300 would
    leave double range in an unscaled sweep."""
    params = ModelParams(n_photons=20, omega0=0.0, g=0.0, j_tun=j)
    chains = parity_chain_spectra(build_sector_hamiltonian(params))
    for chain, closed in zip(chains, harmonic_line_spectra(params)):
        np.testing.assert_allclose(chain.weights, closed.weights, rtol=0, atol=1e-14)


def test_an_exactly_zero_pivot_takes_the_signed_floor():
    """At lam = 0 the first pivot of the chain d = (0, 0, 0), e = (1, 1)
    without its first row is exactly 0; the eigensolver never returns an
    exact 0 there, so the eigenvalues are set by hand.  The floored pivot
    and the next one, about e^2 / floor, multiply to -e^2, their limit as
    the first goes to 0."""
    lam = np.array([-math.sqrt(2.0), 0.0, math.sqrt(2.0)])
    weights = effective._edge_weights(np.zeros(3), np.ones(2), lam)
    np.testing.assert_allclose(weights, [0.25, 0.5, 0.25], rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", [100, 101, AT_THRESHOLD])
def test_parity_chains_make_one_eigensolve_per_chain(monkeypatch, n):
    """One eigensolve per chain, serial below ``_CONCURRENT_ROWS`` rows of
    the symmetric chain and with one worker thread from there on."""
    import concurrent.futures

    pools = []

    class CountedPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountedPool)
    calls = _recorded_chain_eigenvalues(monkeypatch)
    parity_chain_spectra(build_sector_hamiltonian(
        ModelParams(n_photons=n, omega0=1.0, g=1.2, j_tun=0.8)))
    assert sorted(d.size for d, _, _ in calls) == [(n + 1) // 2, n // 2 + 1]
    assert len(pools) == (1 if n // 2 + 1 >= effective._CONCURRENT_ROWS else 0)


def test_parity_chains_match_the_dense_oracle_at_n_2000():
    """The chains' line table against the dense eigenvectors' well past the
    N <= 400 of the property tests above."""
    params = ModelParams(n_photons=2000, omega0=1.0, g=1.2, j_tun=0.8)
    _assert_chains_match_oracle(build_sector_hamiltonian(params))
