"""Photon-sector Hamiltonian of two coupled anharmonic cavities, and its
exact diagonalization.

With atomic branch flips dropped, the N-photon sector over the basis
|N-k, k> (k photons in the second cavity) is a real symmetric tridiagonal
matrix: a square-root photon interaction on the diagonal and the bosonic
tunneling amplitudes next to it.  Diagonalizing it exactly provides both
the production path for line spectra and the independent reference that
the projection recursion is validated against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
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
]

SIGN_PIVOT_TOL = 1e-12


@dataclass(frozen=True)
class SectorHamiltonian:
    """Symmetric tridiagonal N-photon sector matrix.

    ``diag[k]`` is the energy of |N-k, k> and ``offdiag[k]`` couples it to
    |N-k-1, k+1>.  Cavity exchange (k <-> N-k) is a symmetry of the model,
    so both vectors are mirror symmetric.
    """

    n_photons: int
    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.diag, dtype=float)
        h = np.asarray(self.offdiag, dtype=float)
        n = self.n_photons
        if d.shape != (n + 1,) or h.shape != (n,):
            raise ValueError("diagonal needs N+1 entries and off-diagonal N entries")
        scale = max(1.0, float(np.max(np.abs(d))), float(np.max(np.abs(h), initial=0.0)))
        if not np.allclose(d, d[::-1], rtol=0, atol=1e-12 * scale):
            raise ValueError("diagonal breaks cavity-exchange symmetry")
        if not np.allclose(h, h[::-1], rtol=0, atol=1e-12 * scale):
            raise ValueError("off-diagonal breaks cavity-exchange symmetry")
        object.__setattr__(self, "diag", _readonly(d))
        object.__setattr__(self, "offdiag", _readonly(h))

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
    return SectorHamiltonian(n_photons=n, diag=diag, offdiag=offdiag)


def diagonalize(h: SectorHamiltonian) -> EigenDecomposition:
    """Full eigen-decomposition of the sector matrix.

    Eigenvalues come back ascending.  Each eigenvector is normalized with a
    deterministic sign: its first component of magnitude above
    ``SIGN_PIVOT_TOL`` is made positive, so spectral weights built from the
    vectors are reproducible.

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
    vectors = np.array(vectors)
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        pivots = np.nonzero(np.abs(col) > SIGN_PIVOT_TOL)[0]
        if pivots.size and col[pivots[0]] < 0:
            vectors[:, j] = -col
    return EigenDecomposition(energies=energies, vectors=vectors)


def spectra_from_eigen(decomp: EigenDecomposition) -> tuple[LineSpectrum, LineSpectrum]:
    """Line spectra of the edge states from an eigen-decomposition.

    Diagonal weights are the squared first components of the eigenvectors;
    cross weights pair the last component with the first.  Both channels are
    merged with one shared degeneracy clustering so their line counts match.
    """
    first = decomp.vectors[0, :]
    last = decomp.vectors[-1, :]
    w00 = first**2
    wn0 = last * first
    merged_e, (m00, mn0) = merge_degenerate_lines(decomp.energies, [w00, wn0])
    return (
        LineSpectrum(energies=merged_e, weights=m00, kind="diagonal"),
        LineSpectrum(energies=merged_e, weights=mn0, kind="offdiagonal"),
    )
