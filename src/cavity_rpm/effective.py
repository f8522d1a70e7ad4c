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
gives the merged line table directly.
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
    merge_degenerate_lines,
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
        scale = max(1.0, float(np.max(np.abs(d))), float(np.max(np.abs(h), initial=0.0)))
        if not np.allclose(d, d[::-1], rtol=0, atol=1e-12 * scale):
            raise ValueError("diagonal breaks cavity-exchange symmetry")
        if not np.allclose(h, h[::-1], rtol=0, atol=1e-12 * scale):
            raise ValueError("off-diagonal breaks cavity-exchange symmetry")
        object.__setattr__(self, "diag", _readonly(d))
        object.__setattr__(self, "offdiag", _readonly(h))

    @property
    def n_photons(self) -> int:
        return self.diag.size - 1

    def dense(self) -> np.ndarray:
        m = np.diag(self.diag)
        m += np.diag(self.offdiag, 1) + np.diag(self.offdiag, -1)
        return m


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
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
        raise NumericalFailureError(f"tridiagonal eigensolver failed: {exc}") from exc
    return EigenDecomposition(energies=energies, vectors=vectors)


def spectra_from_eigen(decomp: EigenDecomposition) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merged edge-state line table from an eigen-decomposition.

    The diagonal weights are the squared first components of the
    eigenvectors, the cross weights the last component times the first.  Both
    are merged with one degeneracy clustering, without reference to parity:
    the table is the same ``(energies, weight00, weightN0)`` as
    :func:`~cavity_rpm.core.edge_lines` builds from the parity halves.
    """
    first = decomp.vectors[0, :]
    last = decomp.vectors[-1, :]
    energies, (w00, wn0) = merge_degenerate_lines(decomp.energies, [first**2, last * first])
    return energies, w00, wn0


def _chain_eigenvalues(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    if d.size == 0:
        return d.copy()
    import scipy.linalg  # imported here for the reason diagonalize gives

    try:
        return scipy.linalg.eigvalsh_tridiagonal(d, e)
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
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
    for start in range(0, n, rows):
        j = np.arange(start, min(start + rows, n))
        x = lam[j, None]
        # mu_i paired with lam_i below j and with lam_{i+1} from j on: by
        # interlacing every ratio lies in (0, 1), so the product cannot
        # overflow; |.| because rounding can break the interlacing.  Eigenvalues
        # equal to rounding give 0/0, which the sum check below reports
        paired = np.where(cols < j[:, None], lam[:-1], lam[1:])
        with np.errstate(divide="ignore", invalid="ignore"):
            weights[j] = np.prod(np.abs((x - mu) / (x - paired)), axis=1)
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
    ``(N+1)//2`` lines; fewer where J = 0 and g = 0 make levels coincide.

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
    (lam_sym, w_sym), (lam_anti, w_anti) = _chain_lines(*sym), _chain_lines(*anti)
    return LineSpectrum(lam_sym + centre, w_sym), LineSpectrum(lam_anti + centre, w_anti)
