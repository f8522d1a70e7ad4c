"""Photon-sector Hamiltonian of two coupled anharmonic cavities, and its
edge-state line spectra.

With atomic branch flips dropped, the N-photon sector over the basis
|N-k, k> (k photons in the second cavity) is a real symmetric tridiagonal
matrix: a square-root photon interaction on the diagonal and the bosonic
tunneling amplitudes next to it.

Line spectra come from the two exchange-parity chains of that matrix
(:func:`parity_chain_spectra`), one per parity half: eigenvalues only, in
O(N) memory.  The dense eigensolve with eigenvectors (:func:`diagonalize`,
:func:`spectra_from_eigen`) is the oracle that the chains, and the
projection recursion, are validated against.  It does not use parity: it
gives the line table directly, with eigenvalues closer than ``MERGE_RTOL``
taken as one line, the only tolerance clustering of lines in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DIAGONAL_SUM_TOL,
    LineSpectrum,
    ModelParams,
    NumericalFailureError,
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

# ratios of the interlacing product evaluated at once: a few 256 kB arrays
_RATIO_BLOCK = 2**15
# relative gap below which the dense oracle takes eigenvalues as one level
MERGE_RTOL = 1e-9


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
        largest = (float(np.max(np.abs(d))), float(np.max(np.abs(h), initial=0.0)))
        # NaN as well as infinity: a term beyond double range makes an entry
        # infinite, and two such terms of opposite sign make it NaN
        if not all(map(math.isfinite, largest)):
            raise ValueError("sector matrix overflowed: its entries must be finite")
        atol = 1e-12 * max(1.0, *largest)
        if not float(np.max(np.abs(d - d[::-1]))) <= atol:
            raise ValueError("diagonal breaks cavity-exchange symmetry")
        if not float(np.max(np.abs(h - h[::-1]), initial=0.0)) <= atol:
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
        if not np.all(np.diff(e) >= 0):
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
    # imported here: it takes most of the package's import time, and the
    # recursion and closed-form paths never need it
    import scipy.linalg

    try:
        energies, vectors = scipy.linalg.eigh_tridiagonal(h.diag, h.offdiag)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"tridiagonal eigensolver failed: {exc}") from exc
    return EigenDecomposition(energies=energies, vectors=vectors)


def _merge_close_levels(energies: np.ndarray, w00: np.ndarray, wn0: np.ndarray):
    """Cluster ascending ``energies`` whose consecutive gaps fall below
    ``MERGE_RTOL * max(1, |E|)`` into one level, at the mean of its members,
    and sum both weight arrays over each cluster."""
    starts = np.flatnonzero(
        np.diff(energies) > MERGE_RTOL * np.maximum(1.0, np.abs(energies[1:]))) + 1
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


def _chain_eigenvalues(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    if d.size == 0:
        return d.copy()
    import scipy.linalg  # imported here for the reason diagonalize gives

    try:
        return scipy.linalg.eigvalsh_tridiagonal(d, e)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"tridiagonal eigensolver failed: {exc}") from exc


def _chain_lines(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of one chain and the squared first components of its
    eigenvectors, from the eigenvalues of the chain and of the chain
    without its first row (Golub & Welsch 1969):

        w_j = prod_i |lam_j - mu_i| / prod_{i != j} |lam_j - lam_i|.
    """
    mu = _chain_eigenvalues(d[1:], e[1:])
    if not np.any(e[:1]):
        # the first state is decoupled (J = 0, or a chain of one state), so
        # it is an eigenvector; the interlacing product would read 0/0.  Sorted,
        # with coinciding levels (all of them at g = 0) taken as one
        lam, first = np.unique(np.concatenate([d[:1], mu]), return_index=True)
        return lam, np.where(first == 0, 1.0, 0.0)
    lam = _chain_eigenvalues(d, e)
    n = lam.size
    weights = np.empty(n)
    cols = np.arange(n - 1)
    rows = max(1, _RATIO_BLOCK // n)
    # numerators and denominators of one block of ratios, rows j by columns
    # i, reused for every block
    nums = np.empty((min(rows, n), n - 1))
    dens = np.empty_like(nums)
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, n, rows):
            stop = min(start + rows, n)
            x = lam[start:stop, None]
            num, den = nums[:stop - start], dens[:stop - start]
            # mu_i paired with lam_i below j and with lam_{i+1} from j on: by
            # interlacing every ratio lies in (0, 1), so the product cannot
            # overflow; |.| because rounding can break the interlacing.  Eigenvalues
            # equal to rounding give 0/0, which the sum check below reports
            np.subtract(x, lam[1:], out=den)
            np.subtract(x, lam[:start], out=den[:, :start])
            block = slice(start, stop - 1)
            np.copyto(den[:, block], x - lam[block],
                      where=cols[block] < np.arange(start, stop)[:, None])
            np.subtract(x, mu, out=num)
            np.divide(num, den, out=num)
            np.abs(num, out=num)
            np.prod(num, axis=1, out=weights[start:stop])
    total = float(np.sum(weights))
    if not abs(total - 1.0) <= DIAGONAL_SUM_TOL:
        raise NumericalFailureError(
            f"parity-chain edge weights sum to {total!r}: the chain's eigenvalues "
            "lie too close together to resolve them"
        )
    return lam, weights


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
    squared first components u^2 of its chain's eigenvectors.  They come from eigenvalues alone, via the
    interlacing product of each chain and the chain without its first row.
    Time O(N^2), memory O(N).  Returns ``(sym, anti)``, of ``N//2 + 1`` and
    ``(N+1)//2`` lines; fewer where J = 0 and g = 0 make levels coincide, or
    where J lies below the rounding of the levels.

    Raises
    ------
    NumericalFailureError
        If an eigensolve fails, or a chain's weights do not sum to one within
        ``DIAGONAL_SUM_TOL`` because its eigenvalues are too close together to
        resolve them.
    """
    n = h.n_photons
    m = n // 2
    # eigenvalue errors scale with the largest entry, so take out the offset
    # the whole diagonal shares; the interlacing ratios do not depend on it
    centre = 0.5 * (float(np.min(h.diag)) + float(np.max(h.diag)))
    d = h.diag - centre
    e = h.offdiag
    if n % 2 == 0:
        sym = (d[:m + 1], np.concatenate([e[:m - 1], [math.sqrt(2.0) * e[m - 1]]]))
        anti = (d[:m], e[:m - 1])
    else:
        sym = (np.concatenate([d[:m], [d[m] + e[m]]]), e[:m])
        anti = (np.concatenate([d[:m], [d[m] - e[m]]]), e[:m])
    halves = []
    for lam, weights in (_chain_lines(*sym), _chain_lines(*anti)):
        # eigenvalues resolved apart can round to one double once the centre
        # is added back: one line with their summed weight, the rule of
        # edge_lines and harmonic_line_spectra
        levels, row = np.unique(lam + centre, return_inverse=True)
        halves.append(LineSpectrum(levels, np.bincount(row, weights)))
    return tuple(halves)
