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
:func:`edge_lines` merges the halves into one table of
``(energy, weight00, weightN0)``, with ``weight00 = w/2`` and
``weightN0 = +-w/2`` (+ in the symmetric half), for output and densities.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "UnsupportedModelError",
    "NumericalFailureError",
    "NearPoleError",
    "ModelParams",
    "LineSpectrum",
    "AmplitudeSeries",
    "merge_degenerate_lines",
    "edge_lines",
    "smoothed_density",
    "amplitude_from_lines",
    "resolvent_from_lines",
]

MERGE_RTOL = 1e-9
DIAGONAL_SUM_TOL = 1e-10
AMPLITUDE_BOUND_TOL = 1e-9
# entries of the Lorentzian matrix that smoothed_density evaluates at once
_DENSITY_BLOCK = 2**16


class UnsupportedModelError(ValueError):
    """A configuration falls outside the closed-form scope of a model."""


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
    """Physical configuration of the cavity models, hbar = 1.

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
    delta : float
        Atom-cavity detuning, used by the single-cavity model only.
    """

    n_photons: int
    omega0: float = 0.0
    g: float = 0.0
    j_tun: float = 0.0
    sigma: int = 1
    delta: float = 0.0

    def __post_init__(self):
        for name in ("n_photons", "omega0", "g", "j_tun", "delta"):
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
    a = np.array(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class LineSpectrum:
    """Finite line spectrum |<E_j|psi>|^2 of one state: energies strictly
    ascending, real weights >= 0 summing to 1."""

    energies: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        energies = _readonly(np.asarray(self.energies, dtype=float))
        weights = _readonly(np.asarray(self.weights, dtype=float))
        if energies.ndim != 1 or energies.shape != weights.shape:
            raise ValueError("energies and weights must be 1-d arrays of equal length")
        if energies.size == 0:
            raise ValueError("a spectrum needs at least one line")
        if np.any(np.diff(energies) <= 0):
            raise ValueError("energies must be strictly ascending; merge degenerate lines first")
        if np.any(weights < -1e-14):
            raise ValueError("weights must be non-negative")
        total = float(np.sum(weights))
        if abs(total - 1.0) > DIAGONAL_SUM_TOL:
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
            if np.max(np.abs(steps - steps[0])) > tol:
                raise ValueError("time grid must be uniform")
        if np.max(np.abs(values)) > 1.0 + AMPLITUDE_BOUND_TOL:
            raise ValueError("amplitudes of normalized states cannot exceed modulus 1")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return int(self.times.size)


def merge_degenerate_lines(
    energies: Sequence[float],
    weight_sets: Sequence[Sequence[complex]],
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Cluster near-degenerate energies and sum weights within each cluster.

    Energies whose consecutive gaps fall below ``MERGE_RTOL * max(1, |E|)``
    are treated as one level.  Every weight set is clustered with the same
    partition, so spectra sharing an eigenbasis keep matching line counts.
    The merged energy is the arithmetic mean of the cluster members.

    Parameters
    ----------
    energies : sequence of float
        Level positions, in any order.
    weight_sets : sequence of weight sequences
        One or more weight arrays aligned with ``energies``.

    Returns
    -------
    merged_energies : ndarray
        Strictly ascending cluster energies.
    merged_weight_sets : list of ndarray
        Cluster-summed weights, one array per input set.
    """
    e = np.asarray(energies, dtype=float)
    if e.ndim != 1 or e.size == 0:
        raise ValueError("energies must be a non-empty 1-d sequence")
    sets = [np.asarray(w) for w in weight_sets]
    for w in sets:
        if w.shape != e.shape:
            raise ValueError("every weight set must match the energy count")
    order = np.argsort(e, kind="stable")
    e = e[order]
    sets = [w[order] for w in sets]

    starts = np.flatnonzero(np.diff(e) > MERGE_RTOL * np.maximum(1.0, np.abs(e[1:]))) + 1
    boundaries = np.concatenate([[0], starts, [e.size]])
    # a level alone keeps its values, with -0.0 made 0.0 (+ 0) as a NumPy
    # mean or sum of one term makes it; only clusters of several levels take
    # a mean and sums
    merged_e = e[boundaries[:-1]] + 0
    merged_sets = [w[boundaries[:-1]] + 0 for w in sets]
    for j in np.flatnonzero(np.diff(boundaries) > 1):
        lo, hi = boundaries[j], boundaries[j + 1]
        merged_e[j] = e[lo:hi].mean()
        for w, out in zip(sets, merged_sets):
            out[j] = w[lo:hi].sum()
    return merged_e, merged_sets


def edge_lines(sym: LineSpectrum, anti: LineSpectrum):
    """The merged table ``(energies, weight00, weightN0)`` of the parity halves.

    A line of weight ``w`` carries ``weight00 = w/2`` and ``weightN0 = +-w/2``
    (+ in the symmetric half); the lines of both halves are clustered with
    :func:`merge_degenerate_lines`.
    """
    energies, (w00, wn0) = merge_degenerate_lines(
        np.concatenate([sym.energies, anti.energies]),
        [np.concatenate([sym.weights, anti.weights]) / 2,
         np.concatenate([sym.weights, -anti.weights]) / 2],
    )
    return energies, w00, wn0


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
    # the cross weights enter a complex product, whose rounding (zgemv, not
    # dgemv) the written rhoN0 columns carry
    wn0 = wn0.astype(complex)
    # the Lorentzian matrix block by block, each block a multiple of 4 rows and
    # the last one taking the remainder, so that every row is summed as in one
    # product over the whole grid: OpenBLAS's gemv kernels take rows in
    # groups of 4, and a block of a single row would be summed another way
    rows = 4 * max(1, _DENSITY_BLOCK // (4 * lines.size))
    bounds = [*range(0, max(grid.size - rows, 1), rows), grid.size]
    rho00 = np.empty(grid.size)
    rhon0 = np.empty(grid.size)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        lorentz = epsilon / (epsilon**2 + (grid[lo:hi, None] - lines[None, :]) ** 2)
        rho00[lo:hi] = lorentz @ w00 / np.pi
        rhon0[lo:hi] = np.real(lorentz @ wn0 / np.pi)
    return rho00, rhon0


def _two_product(a: float, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a * b`` as a rounded product plus its exact rounding error (Dekker)."""

    def split(x):
        # Veltkamp: 26 high bits and the rest, so that partial products are exact
        scaled = 134217729.0 * x
        high = scaled - (scaled - x)
        return high, x - high

    product = a * b
    a_hi, a_lo = split(np.float64(a))
    b_hi, b_lo = split(b)
    # ((a_hi b_hi - product) + a_hi b_lo + a_lo b_hi) + a_lo b_lo, in this order,
    # summed in place to keep full-length temporaries few
    error = a_hi * b_hi
    error -= product
    error += a_hi * b_lo
    error += a_lo * b_hi
    error += a_lo * b_lo
    return product, error


def _block_sums(energies: np.ndarray, weights: np.ndarray, times, centre: float) -> np.ndarray:
    """``sum_j w_j exp(-i (E_j - c) t)`` on a uniform grid: the block synthesis
    of :func:`amplitude_from_lines` without the common phase ``exp(-i c t)``.

    Takes any number of lines, none included (the sums are then zero).  Lines
    of zero weight add nothing and are skipped.
    """
    reached = weights != 0
    energies, weights = energies[reached], weights[reached]
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("times must be a non-empty 1-d array")
    n = t.size
    step = float(t[-1] - t[0]) / (n - 1) if n > 1 else 0.0
    offsets = np.arange(n) * step
    shifted = energies - centre
    # a departure from the uniform grid moves a phase by up to reach * departure;
    # allow no more than rounding the phases costs anyway
    reach = float(np.max(np.abs(shifted), initial=0.0))
    departure = float(np.max(np.abs(t - (t[0] + offsets))))
    largest = max(abs(float(t[0])), abs(float(t[-1])))
    if reach * departure > 16 * np.finfo(float).eps * (reach * largest + 1.0):
        raise ValueError("time grid must be uniform to rounding")
    block = math.ceil(math.sqrt(n))
    table = np.exp(-1j * np.outer(offsets[:block], shifted))
    phasors = weights * np.exp(-1j * np.outer(t[::block], shifted))
    values = np.empty(n, dtype=complex)
    for start, phasor in zip(range(0, n, block), phasors):
        stop = min(start + block, n)
        values[start:stop] = table[:stop - start] @ phasor
    return values


def _common_phase(centre: float, times: np.ndarray) -> np.ndarray:
    """``exp(-i c t)`` with ``c t`` carried to twice working precision."""
    phase, error = _two_product(centre, times)
    # |error| <= ulp(c t) / 2, so exp(-i error) = 1 - i error to within eps^2
    return np.exp(-1j * phase) * (1.0 - 1j * error)


def amplitude_from_lines(spec: LineSpectrum, times) -> AmplitudeSeries:
    """Synthesize the time amplitude ``sum_j w_j exp(-i E_j t)`` on a uniform grid.

    The n samples are split into blocks of ``B = ceil(sqrt(n))``.  With the
    energies measured from the centre ``c`` of the line span, one table
    ``exp(-i (E_j - c) s h)`` for ``s = 0..B-1`` (``h`` the grid step) serves
    every block; each block multiplies it by its own phasors
    ``w_j exp(-i (E_j - c) t_b)``, taken directly at the block's first time
    ``t_b`` so that no rounding carries from one block to the next.  The
    common phase ``exp(-i c t)`` is applied per sample, with ``c t`` carried
    to twice working precision so that it adds no error shared by all lines.
    That is about ``2 sqrt(n) L + n`` complex exponentials for L lines,
    instead of ``n L``, and one matrix-vector product per block; memory is
    O(n + sqrt(n) L).

    Accuracy: each line's phase is rounded about as often as in the direct
    sum ``exp(-1j * np.outer(t, E)) @ w``, and the two agree to within
    ``8 eps (max|E| max|t| + L) sum|w_j|``.

    Raises
    ------
    ValueError
        If ``times`` is empty, not 1-d, or departs from a uniform grid by
        more than rounding: by so much that some phase ``(E_j - c) t`` moves
        by over ``16 eps (max|E_j - c| max|t| + 1)``.
    """
    t = np.asarray(times, dtype=float)
    centre = 0.5 * (spec.energies[0] + spec.energies[-1])
    values = _block_sums(spec.energies, spec.weights, t, centre)
    values *= _common_phase(centre, t)
    return AmplitudeSeries(times=t, values=values)


def resolvent_from_lines(spec: LineSpectrum, z: complex) -> complex:
    """Evaluate the resolvent matrix element ``sum_j w_j / (z - E_j)``."""
    return complex(np.sum(spec.weights / (complex(z) - spec.energies)))
