"""Photon-sector Hamiltonian of two coupled anharmonic cavities, and its
edge-state line spectra.

With atomic branch flips dropped, the N-photon sector over the basis
|N-k, k> (k photons in the second cavity) is a real symmetric tridiagonal
matrix: a square-root photon interaction on the diagonal and the bosonic
tunneling amplitudes next to it.

Line spectra come from the two exchange-parity chains of that matrix
(:func:`parity_chain_spectra`), one per parity half: per chain one
eigensolve, eigenvalues only, and one pivot sweep for the weights, in
O(N^2) time and O(N) memory.  The eigensolves call LAPACK through a ctypes
binding that releases the GIL, so long chains are solved side by side on
two threads.  The binding comes from SciPy's ``cython_lapack`` extension,
loaded from its file without the ``scipy.linalg`` package, whose import
takes longer than a figure-scale command computes.  The dense eigensolve
with eigenvectors (:func:`diagonalize`, :func:`spectra_from_eigen`) is the
oracle that the chains, and the projection recursion, are validated
against.  It does not use parity: it gives the line table directly, with
eigenvalues closer than ``MERGE_RTOL`` taken as one line, the only
tolerance clustering of lines in the package.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .core import (
    DIAGONAL_SUM_TOL,
    LineSpectrum,
    ModelParams,
    NumericalFailureError,
    _merge_equal_levels,
    _readonly,
)

__all__ = [
    "SectorHamiltonian",
    "EigenDecomposition",
    "build_sector_hamiltonian",
    "diagonalize",
    "spectra_from_eigen",
    "parity_chain_spectra",
]

# depths of the pivot sweep between two rescalings of its running products
_RESCALE_DEPTHS = 8
# signed floor of an exactly zero pivot, in units of the chain's largest
# entry: the next pivot, about e^2 / floor, stays within double range too
_PIVOT_FLOOR = 2.0**-511
# relative gap below which the dense oracle takes eigenvalues as one level
MERGE_RTOL = 1e-9
# rows of the symmetric parity chain from which parity_chain_spectra runs the
# two chains' eigensolves on two threads: below about 192 a thread costs
# more wall time than it saves, and at 256 it saves about a tenth
_CONCURRENT_ROWS = 256
# held while the dstevd binding is looked up, so that it is made once
_BINDING_LOCK = threading.Lock()


@dataclass(frozen=True)
class SectorHamiltonian:
    """Symmetric tridiagonal N-photon sector matrix.

    ``diag[k]`` is the energy of |N-k, k> and ``offdiag[k]`` couples it to
    |N-k-1, k+1>.  Cavity exchange (k <-> N-k) is a symmetry of the model,
    so both vectors are mirror symmetric.
    """

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.diag, dtype=float)
        h = np.asarray(self.offdiag, dtype=float)
        if d.ndim != 1 or h.shape != (d.size - 1,):
            raise ValueError("diagonal needs N+1 entries and off-diagonal N entries")
        largest = (float(np.abs(d).max()), float(np.abs(h).max(initial=0.0)))
        # NaN as well as infinity: a term beyond double range makes an entry
        # infinite, and two such terms of opposite sign make it NaN
        if not all(map(math.isfinite, largest)):
            raise ValueError("sector matrix overflowed: its entries must be finite")
        atol = 1e-12 * max(1.0, *largest)
        if not float(np.abs(d - d[::-1]).max()) <= atol:
            raise ValueError("diagonal breaks cavity-exchange symmetry")
        if not float(np.abs(h - h[::-1]).max(initial=0.0)) <= atol:
            raise ValueError("off-diagonal breaks cavity-exchange symmetry")
        object.__setattr__(self, "diag", _readonly(d))
        object.__setattr__(self, "offdiag", _readonly(h))

    @property
    def n_photons(self) -> int:
        return self.diag.size - 1


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues with orthonormal eigenvectors in the sector basis."""

    energies: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.energies, dtype=float)
        v = np.asarray(self.vectors, dtype=float)
        if v.shape != (e.size, e.size):
            raise ValueError("vectors must be square with one column per energy")
        # a difference, not a comparison: inf - inf is NaN, so equal
        # infinities are refused as well as a NaN
        if not (e[1:] - e[:-1] >= 0).all():
            raise ValueError("energies must be ascending")
        object.__setattr__(self, "energies", _readonly(e))
        object.__setattr__(self, "vectors", _readonly(v))


def build_sector_hamiltonian(params: ModelParams) -> SectorHamiltonian:
    """Assemble the sector matrix for the given physical configuration.

    diag_k    = omega0 N + 2 sigma g (sqrt(N-k) + sqrt(k))
    offdiag_k = -J sqrt((k+1)(N-k))
    """
    n = params.n_photons
    k = np.arange(n + 1)
    diag = params.omega0 * n + 2.0 * params.sigma * params.g * (
        np.sqrt(n - k) + np.sqrt(k)
    )
    kk = np.arange(n)
    offdiag = -params.j_tun * np.sqrt((kk + 1.0) * (n - kk))
    return SectorHamiltonian(diag=diag, offdiag=offdiag)


def diagonalize(h: SectorHamiltonian) -> EigenDecomposition:
    """Full eigen-decomposition of the sector matrix.

    Eigenvalues ascending, orthonormal eigenvectors as the solver returns them.

    Raises
    ------
    NumericalFailureError
        If the tridiagonal eigensolver fails to converge.
    """
    energies, vectors = _eigh_tridiagonal(h.diag, h.offdiag, vectors=True)
    return EigenDecomposition(energies=energies, vectors=vectors)


def _merge_close_levels(energies: np.ndarray, w00: np.ndarray, wn0: np.ndarray):
    """Cluster ascending ``energies`` whose consecutive gaps fall below
    ``MERGE_RTOL * max(1, |E|)`` into one level, at the mean of its members,
    and sum both weight arrays over each cluster."""
    apart = energies[1:] - energies[:-1] > MERGE_RTOL * np.maximum(1.0, np.abs(energies[1:]))
    starts = np.flatnonzero(apart) + 1
    boundaries = np.concatenate([[0], starts, [energies.size]])
    # a level alone keeps its values, with -0.0 made 0.0 (+ 0) as a NumPy
    # mean or sum of one term makes it; only clusters of several levels take
    # a mean and sums
    merged = [a[boundaries[:-1]] + 0 for a in (energies, w00, wn0)]
    for j in np.flatnonzero(np.diff(boundaries) > 1):
        lo, hi = boundaries[j], boundaries[j + 1]
        merged[0][j] = energies[lo:hi].mean()
        merged[1][j] = w00[lo:hi].sum()
        merged[2][j] = wn0[lo:hi].sum()
    return tuple(merged)


def spectra_from_eigen(decomp: EigenDecomposition) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge-state line table from an eigen-decomposition.

    The diagonal weights are the squared first components of the
    eigenvectors, the cross weights the last component times the first.
    Without reference to parity, and unlike :func:`~cavity_rpm.core.edge_lines`,
    eigenvalues closer than ``MERGE_RTOL`` (1e-9 relative) form one line:
    the dense eigenvectors of such levels mix, and only their cluster's
    weights are defined.  Otherwise the table is the same
    ``(energies, weight00, weightN0)`` as ``edge_lines`` builds from the
    parity halves.
    """
    first = decomp.vectors[0, :]
    last = decomp.vectors[-1, :]
    return _merge_close_levels(decomp.energies, first**2, last * first)


def _lapack_dstevd():
    """ctypes binding of LAPACK ``dstevd``, from the function pointer that
    SciPy exports in ``scipy.linalg.cython_lapack.__pyx_capi__``.  A ctypes
    foreign function releases the GIL for the call.  Every call, on any
    thread, returns the same binding."""
    # functools.cache does not serialize first calls, and the two threads of
    # parity_chain_spectra can both make the first one.  The extension enters
    # itself in sys.modules early in its initialisation, which then imports
    # the scipy package: without the lock the other thread could find it
    # there without its __pyx_capi__ yet.
    with _BINDING_LOCK:
        return _dstevd_binding()


@functools.cache
def _dstevd_binding():
    module_name = "scipy.linalg.cython_lapack"
    cython_lapack = sys.modules.get(module_name)
    if cython_lapack is None:
        # loaded from its file alone: importing it by name would first run
        # the scipy.linalg package, several times slower to import than the
        # extension, which the recursion and closed-form paths never need.
        # Finding the scipy package's directory imports nothing.
        scipy_dirs = importlib.util.find_spec("scipy").submodule_search_locations
        spec = importlib.machinery.PathFinder.find_spec(
            module_name, [os.path.join(d, "linalg") for d in scipy_dirs])
        cython_lapack = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(cython_lapack)
        # published once initialised: a later import of scipy.linalg finds
        # this module instead of loading it again
        sys.modules[module_name] = cython_lapack

    capsule = cython_lapack.__pyx_capi__["dstevd"]
    # prototypes of its own, as setting argtypes on ctypes.pythonapi's
    # functions would change them for every other caller
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))(capsule)
    address = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))(capsule, name)
    double_p = ctypes.POINTER(ctypes.c_double)
    int_p = ctypes.POINTER(ctypes.c_int)
    # jobz, n, d, e, z, ldz, work, lwork, iwork, liwork, info
    return ctypes.CFUNCTYPE(None, ctypes.c_char_p, int_p, double_p, double_p, double_p,
                            int_p, double_p, int_p, int_p, int_p, int_p)(address)


def _first(a: np.ndarray, ctype=ctypes.c_double):
    """The first element of the C-contiguous array ``a`` as a ``ctype`` over
    its buffer, which a ctypes pointer argument takes by reference and which
    keeps ``a`` alive; ``None`` (a null pointer) if ``a`` is empty."""
    return ctype.from_buffer(a) if a.size else None


def _eigh_tridiagonal(d: np.ndarray, e: np.ndarray, vectors: bool):
    """Ascending eigenvalues of the symmetric tridiagonal matrix ``(d, e)``,
    with its eigenvectors as the columns of a Fortran-ordered array if
    ``vectors``, else ``None``: LAPACK ``dstevd`` through
    :func:`_lapack_dstevd`, with the workspace sizes of SciPy's f2py
    wrapper.  For eigenvalues only it runs ``dsterf``.  The call releases
    the GIL, so :func:`parity_chain_spectra` can run two at once.

    Raises
    ------
    NumericalFailureError
        If the eigensolver fails to converge.
    """
    n = d.size
    energies = np.array(d, dtype=float)
    # dstevd overwrites the off-diagonal
    off = np.array(e, dtype=float)
    # LAPACK reads n - 1 couplings whatever the buffer holds
    if energies.ndim != 1 or off.shape != (max(n - 1, 0),):
        raise ValueError("a tridiagonal matrix needs n diagonal and n - 1 off-diagonal entries")
    # dstevd writes each eigenvector as a Fortran column, a row of this
    # C-ordered array: z.T holds them as columns
    z = np.empty((n, n) if vectors else (1, 1))
    work = np.empty(1 + 4 * n + n * n if vectors else 1)
    iwork = np.empty(3 + 5 * n if vectors else 1, dtype=np.intc)
    info = ctypes.c_int()
    _lapack_dstevd()(b"V" if vectors else b"N", ctypes.c_int(n), _first(energies),
                     _first(off), _first(z), ctypes.c_int(max(1, z.shape[0])), _first(work),
                     ctypes.c_int(work.size), _first(iwork, ctypes.c_int),
                     ctypes.c_int(iwork.size), info)
    if info.value != 0:
        raise NumericalFailureError(
            f"tridiagonal eigensolver failed: LAPACK dstevd info={info.value}")
    return energies, z.T if vectors else None


def _chain_eigenvalues(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    return _eigh_tridiagonal(d, e, vectors=False)[0]


def _edge_weights(d: np.ndarray, e: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Squared first components of the eigenvectors of the chain ``(d, e)``
    at its eigenvalues ``lam``, by Golub & Welsch (1969):

        w_j = prod_i |lam_j - mu_i| / prod_{i != j} |lam_j - lam_i|,

    with ``mu`` the eigenvalues of the chain T' without its first row.  The
    numerator is |det(T' - lam_j)|, the product of the pivots

        D_k = (d_k - lam_j) - e_{k-1}^2 / D_{k-1},   k = 1 .. n-1,

    of the LDL^T factorization of T' - lam_j: the Sturm sweep of LAPACK's
    ``dstebz``, run here at every ``lam_j`` at once in O(n) memory.  Pivot k
    is divided by lam_j - lam_{k-1}, or by lam_{k-1} - lam_{n-1} at
    j = k - 1, so the n - 1 pivots meet the n - 1 differences one each.
    """
    n = lam.size
    # a power of two brings the largest entry into [1/2, 1): exact, and the
    # ratios do not depend on it, so no coupling squared leaves double range
    shift = -math.frexp(max(abs(d).max(), abs(e).max()))[1]
    d = np.ldexp(d, shift).tolist()
    e2 = np.square(np.ldexp(e, shift)).tolist()
    x = np.ldexp(lam, shift)
    xs = x.tolist()
    weights = np.ones(n)
    exponents = np.zeros(n, dtype=np.intc)
    mantissa_exponents = np.empty(n, dtype=np.intc)
    # D_0 = inf starts the recursion: e_0^2 / inf = 0
    pivot = np.full(n, np.inf)
    shifted = np.empty(n)
    diff = np.empty(n)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k in range(1, n):
            np.divide(e2[k - 1], pivot, pivot)
            np.subtract(d[k], x, shifted)
            np.subtract(shifted, pivot, pivot)
            # an exactly zero pivot moves to the signed floor -_PIVOT_FLOOR,
            # as LAPACK's dlaebz floors its pivots, and would otherwise give
            # 0 * inf at the next depth; below half an ulp of every pivot
            # of size 2^-456 or more, the shift leaves those bits unchanged
            np.subtract(pivot, _PIVOT_FLOOR, pivot)
            np.subtract(x, xs[k - 1], diff)
            diff[k - 1] = xs[k - 1] - xs[-1]
            np.multiply(weights, pivot, weights)
            np.divide(weights, diff, weights)
            if k % _RESCALE_DEPTHS == 0:
                # mantissas in [1/2, 1), exponents apart: the running
                # products can neither overflow nor underflow
                np.frexp(weights, out=(weights, mantissa_exponents))
                exponents += mantissa_exponents
    # |.| because the signs of the pivots and differences are not tracked.
    # Eigenvalues equal to rounding divide by 0, which the sum check of
    # _chain_lines reports
    return np.ldexp(np.abs(weights), exponents)


def _solved_chain(d: np.ndarray, e: np.ndarray):
    """The chain whose eigenvalues :func:`_chain_lines` takes for the chain
    ``(d, e)``: the chain itself, or the chain without its first state where
    that state is decoupled (J = 0, or a chain of one state) and so an
    eigenvector."""
    return (d[1:], e[1:]) if not e[:1].any() else (d, e)


def _chain_lines(d: np.ndarray, e: np.ndarray, lam: np.ndarray):
    """Eigenvalues of the chain ``(d, e)`` and the squared first components
    of its eigenvectors (:func:`_edge_weights`), from the eigenvalues ``lam``
    of its :func:`_solved_chain`; unsorted where the first state is
    decoupled."""
    if lam.size < d.size:
        # the first state is decoupled, an eigenvector of weight 1, and the
        # pivot sweep would read 0/0.  The merge of parity_chain_spectra sorts
        # the levels and takes coinciding ones (all of them at g = 0) as one
        weights = np.zeros(d.size)
        weights[0] = 1.0
        return np.concatenate([d[:1], lam]), weights
    weights = _edge_weights(d, e, lam)
    total = float(weights.sum())
    if not abs(total - 1.0) <= DIAGONAL_SUM_TOL:
        raise NumericalFailureError(
            f"parity-chain edge weights sum to {total!r}: the chain's eigenvalues "
            "lie too close together to resolve them"
        )
    return lam, weights


def _parity_chains(h: SectorHamiltonian):
    """``(centre, sym, anti)``: the ``(d, e)`` chains of the two parity
    halves (see :func:`parity_chain_spectra`), their diagonals measured from
    ``centre``, the middle of the sector diagonal's span."""
    n = h.n_photons
    m = n // 2
    # eigenvalue errors scale with the largest entry, so take out the offset
    # the whole diagonal shares; the pivots and differences do not depend on it
    centre = 0.5 * (float(h.diag.min()) + float(h.diag.max()))
    d = h.diag - centre
    e = h.offdiag
    if n % 2 == 0:
        sym = (d[:m + 1], np.concatenate([e[:m - 1], [math.sqrt(2.0) * e[m - 1]]]))
        anti = (d[:m], e[:m - 1])
    else:
        sym = (np.concatenate([d[:m], [d[m] + e[m]]]), e[:m])
        anti = (np.concatenate([d[:m], [d[m] - e[m]]]), e[:m])
    return centre, sym, anti


def parity_chain_spectra(h: SectorHamiltonian) -> tuple[LineSpectrum, LineSpectrum]:
    """Line spectra of the edge state in the two exchange-parity halves.

    Cavity exchange (k <-> N-k) splits the sector into states symmetric and
    antisymmetric under the mirror, each a tridiagonal chain over the pairs
    (|N-k, k> +- |k, N-k>)/sqrt(2).  For N = 2M the symmetric chain is
    ``diag[:M+1]`` with the coupling to the centre state scaled by sqrt(2),
    and the antisymmetric one ``diag[:M]``; for N = 2M+1 both chains are
    ``diag[:M+1]``, whose last entry is shifted by ``+- offdiag[M]``.

    The edge state |N,0> is the sum of the chains' first states
    (|N,0> +- |0,N>)/sqrt(2), over sqrt(2), so each half's weights are the
    squared first components u^2 of its chain's eigenvectors.  Per chain,
    one eigensolve gives the eigenvalues, and one pivot sweep of the chain
    without its first row, run at all of them at once, gives the weights
    (:func:`_edge_weights`): two eigensolves in all, time O(N^2), memory
    O(N).  From ``_CONCURRENT_ROWS`` rows of the symmetric chain on, a
    worker thread solves it while the calling thread solves the
    antisymmetric one; the worker is joined, and its error re-raised, before
    the call returns.  Both paths give the same bytes.  Below the threshold,
    where a thread costs more than it saves, the call stays serial.
    Returns ``(sym, anti)``, of ``N//2 + 1`` and
    ``(N+1)//2`` lines; fewer where J = 0 and g = 0 make levels coincide, or
    where J lies below the rounding of the levels.

    Raises
    ------
    NumericalFailureError
        If an eigensolve fails, or a chain's weights do not sum to one within
        ``DIAGONAL_SUM_TOL`` because its eigenvalues are too close together to
        resolve them.
    """
    centre, sym, anti = _parity_chains(h)
    solved = [_solved_chain(*chain) for chain in (sym, anti)]
    if sym[0].size < _CONCURRENT_ROWS:
        eigenvalues = [_chain_eigenvalues(*chain) for chain in solved]
    else:
        # imported here: it adds milliseconds to the package's import, and
        # no call below the threshold needs it
        from concurrent.futures import ThreadPoolExecutor

        # the eigensolves release the GIL: a worker solves the symmetric
        # chain while this thread solves the antisymmetric one
        with ThreadPoolExecutor(max_workers=1) as pool:
            future = pool.submit(_chain_eigenvalues, *solved[0])
            anti_eigenvalues = _chain_eigenvalues(*solved[1])
            eigenvalues = [future.result(), anti_eigenvalues]
    halves = []
    for chain, chain_eigenvalues in zip((sym, anti), eigenvalues):
        lam, weights = _chain_lines(*chain, chain_eigenvalues)
        # eigenvalues resolved apart can round to one double once the centre
        # is added back: one line with their summed weight, the rule of
        # edge_lines and harmonic_line_spectra
        halves.append(LineSpectrum(*_merge_equal_levels(lam + centre, weights)))
    return tuple(halves)
