"""Shared domain types and the pole/residue spectral formalism.

Every model in this package reduces to finite lists of spectral lines:
real energies ``E_j`` with real non-negative weights ``w_j`` summing to one.
Densities, resolvent samples and time series are then exact finite sums
over those lines,

* smoothed density   ``(1/pi) sum_j w_j eps / (eps^2 + (E - E_j)^2)``
* resolvent element  ``sum_j w_j / (z - E_j)``
* amplitude          ``sum_j w_j exp(-i E_j t)``

so no discretized integral ever enters.

Cavity exchange splits the N-photon sector into a symmetric and an
antisymmetric half, and the models return the edge state's line spectrum
in each half, ``(sym, anti)``.  The return and transition amplitudes are
``c0, cN = (S +- A)/2`` with ``S`` and ``A`` the amplitudes of the halves.
:func:`edge_lines` sorts the halves into one table of
``(energy, weight00, weightN0)``, with ``weight00 = w/2`` and
``weightN0 = +-w/2`` (+ in the symmetric half), for output and densities.
Only lines at equal energies share a row: no tolerance fuses the lines of
the two halves, so an edge doublet split far below any tolerance stays two
rows.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NumericalFailureError",
    "NearPoleError",
    "ModelParams",
    "LineSpectrum",
    "AmplitudeSeries",
    "edge_lines",
    "smoothed_density",
]

DIAGONAL_SUM_TOL = 1e-10
AMPLITUDE_BOUND_TOL = 1e-9
# entries of the Lorentzian matrix that smoothed_density evaluates at once
_DENSITY_BLOCK = 2**16


class NumericalFailureError(RuntimeError):
    """A numerical routine could not produce a reliable result."""


class NearPoleError(NumericalFailureError):
    """A resolvent evaluation landed on (or under machine precision of) a pole.

    Attributes
    ----------
    depth : int
        Recursion depth at which the evaluation broke down.
    """

    def __init__(self, message: str, depth: int):
        super().__init__(message)
        self.depth = depth


@dataclass(frozen=True)
class ModelParams:
    """Physical configuration of the cavity models, hbar = 1, with every atom
    resonant with its cavity.

    Parameters
    ----------
    n_photons : int
        Total photon number N of the prepared Fock state, N >= 1.
    omega0 : float
        Cavity frequency (energy units).
    g : float
        Atom-photon coupling strength.
    j_tun : float
        Inter-cavity tunneling rate J, J >= 0.
    sigma : int
        Dressed-branch sign, +1 or -1.
    """

    n_photons: int
    omega0: float = 0.0
    g: float = 0.0
    j_tun: float = 0.0
    sigma: int = 1

    def __post_init__(self):
        for name in ("n_photons", "omega0", "g", "j_tun"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and math.isfinite(value)):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")
        if int(self.n_photons) != self.n_photons or self.n_photons < 1:
            raise ValueError(f"n_photons must be an integer >= 1, got {self.n_photons}")
        if self.sigma not in (1, -1):
            raise ValueError(f"sigma must be +1 or -1, got {self.sigma}")
        if self.j_tun < 0:
            raise ValueError(f"j_tun must be >= 0, got {self.j_tun}")
        # an integral float (a JSON 4.0) sizes and slices arrays as an int
        object.__setattr__(self, "n_photons", int(self.n_photons))


def _readonly(a: np.ndarray) -> np.ndarray:
    """A read-only array of ``a``'s values.  ``a`` itself when it owns its
    data (``base is None``) and is read-only already, as a producer that
    froze its own buffer hands it over; otherwise a frozen copy, so that no
    caller's writable array or view backs a frozen spectrum or series."""
    if a.base is None and not a.flags.writeable:
        return a
    a = np.array(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class LineSpectrum:
    """Finite line spectrum |<E_j|psi>|^2 of one state: energies finite and
    strictly ascending, real weights >= 0 summing to 1."""

    energies: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        energies = _readonly(np.asarray(self.energies, dtype=float))
        weights = _readonly(np.asarray(self.weights, dtype=float))
        if energies.ndim != 1 or energies.shape != weights.shape:
            raise ValueError("energies and weights must be 1-d arrays of equal length")
        if energies.size == 0:
            raise ValueError("a spectrum needs at least one line")
        # a NaN fails the comparison, so it is refused here, before the
        # finiteness test, which the endpoints of a strictly ascending array
        # pass only if every energy between them passes it too
        if not (energies[1:] > energies[:-1]).all():
            raise ValueError("energies must be strictly ascending")
        if not (math.isfinite(energies[0]) and math.isfinite(energies[-1])):
            raise ValueError("line energies overflowed: they must be finite")
        # the smallest weight is NaN if any weight is, and fails as well
        if not weights.min() >= -1e-14:
            raise ValueError("weights must be non-negative")
        total = float(weights.sum())
        if not abs(total - 1.0) <= DIAGONAL_SUM_TOL:
            raise ValueError(f"weights must sum to 1, got {total!r}")
        object.__setattr__(self, "energies", energies)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return int(self.energies.size)


@dataclass(frozen=True)
class AmplitudeSeries:
    """Complex amplitude samples on a uniform time grid."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = _readonly(np.asarray(self.times, dtype=float))
        values = _readonly(np.asarray(self.values, dtype=complex))
        if times.ndim != 1 or times.shape != values.shape or times.size == 0:
            raise ValueError("times and values must be non-empty 1-d arrays of equal length")
        if times.size > 1:
            steps = np.diff(times)
            tol = 1e-9 * max(1.0, abs(float(times[-1])))
            if not np.max(np.abs(steps - steps[0])) <= tol:
                raise ValueError("time grid must be uniform")
        if not np.max(np.abs(values)) <= 1.0 + AMPLITUDE_BOUND_TOL:
            raise ValueError("amplitudes of normalized states cannot exceed modulus 1")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return int(self.times.size)


def _merge_equal_levels(energies: np.ndarray, *weights: np.ndarray):
    """``(levels, *sums)``: ``energies`` sorted, with neighbours equal in
    floating point taken as one level, and each array of ``weights`` summed
    over each level.  The one merge rule of the package's line spectra:
    bit for bit the levels of ``np.unique(energies, return_inverse=True)``
    and the sums of ``np.bincount`` over its inverse, for energies without
    NaN, where a level of ``-0.0`` and ``0.0`` takes the sign that NumPy's
    default sort puts first."""
    order = energies.argsort()
    ordered = energies[order]
    first = np.concatenate([[True], ordered[1:] != ordered[:-1]])
    row = np.empty(energies.size, dtype=np.intp)
    row[order] = np.cumsum(first) - 1
    return (ordered[first], *(np.bincount(row, w) for w in weights))


def edge_lines(sym: LineSpectrum, anti: LineSpectrum):
    """The table ``(energies, weight00, weightN0)`` of the parity halves.

    A line of weight ``w`` carries ``weight00 = w/2`` and ``weightN0 = +-w/2``
    (+ in the symmetric half).  The lines of both halves are sorted into one
    table, and only lines at equal energies form one row, with their weights
    summed: lines of the two halves that lie close together, such as an edge
    doublet, stay two rows.
    """
    energies, w00, wn0 = _merge_equal_levels(
        np.concatenate([sym.energies, anti.energies]),
        np.concatenate([sym.weights, anti.weights]) / 2,
        np.concatenate([sym.weights, -anti.weights]) / 2)
    # + 0 makes an energy of -0.0 read 0.0
    return energies + 0, w00, wn0


def smoothed_density(sym: LineSpectrum, anti: LineSpectrum, energies, epsilon: float):
    """Lorentzian-broadened densities ``(rho00, rhoN0)`` on a non-empty energy grid.

    Evaluates ``(1/pi) sum_j w_j eps / (eps^2 + (E - E_j)^2)``, with
    ``epsilon`` positive and finite, over the lines of :func:`edge_lines`,
    once with ``weight00`` and once with ``weightN0``.
    """
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    grid = np.asarray(energies, dtype=float)
    if grid.size == 0:
        raise ValueError("energy grid must be non-empty")
    lines, w00, wn0 = edge_lines(sym, anti)
    # both densities are real products (dgemv) of the Lorentzian matrix, taken
    # block by block, each block a multiple of 4 rows and the last one taking
    # the remainder, so that every row is summed as in one product over the
    # whole grid: OpenBLAS's gemv kernels take rows in groups of 4, and a
    # block of a single row would be summed another way
    rows = 4 * max(1, _DENSITY_BLOCK // (4 * lines.size))
    bounds = [*range(0, max(grid.size - rows, 1), rows), grid.size]
    rho00 = np.empty(grid.size)
    rhon0 = np.empty(grid.size)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        lorentz = epsilon / (epsilon**2 + (grid[lo:hi, None] - lines[None, :]) ** 2)
        rho00[lo:hi] = lorentz @ w00 / np.pi
        rhon0[lo:hi] = lorentz @ wn0 / np.pi
    return rho00, rhon0
