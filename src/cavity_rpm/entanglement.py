"""Joint return/transition statistics and N00N-state scoring.

Sampling the two amplitude moduli over a long time window estimates how
often the dynamics visits states with appreciable weight on both edge
Fock states at once, which is the precondition for dynamically forming
the balanced superposition (|N,0> + |0,N>) / sqrt(2).  :func:`noon_statistics`
gathers these statistics in one pass over the window, chunk by chunk.  The
moduli need no common phase, so the pass makes about ``2 sqrt(n) L`` complex
exponentials for n samples of L lines, and none per sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import AMPLITUDE_BOUND_TOL, LineSpectrum, ModelParams, _readonly
from .dynamics import _chunks

__all__ = [
    "JointHistogram",
    "NoonFeasibility",
    "noon_statistics",
    "noon_score",
    "default_sampling_window",
]

HISTOGRAM_SUM_TOL = 1e-12


@dataclass(frozen=True)
class JointHistogram:
    """Normalized B x B histogram of (|c0|, |cN|) over [0,1]^2."""

    bins: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.bins, dtype=float)
        if b.ndim != 2 or b.shape[0] != b.shape[1] or b.shape[0] < 2:
            raise ValueError("bins must be a square matrix of size >= 2")
        if not np.all(b >= 0):
            raise ValueError("histogram mass cannot be negative")
        if not abs(float(b.sum()) - 1.0) <= HISTOGRAM_SUM_TOL:
            raise ValueError("histogram must be normalized to total mass 1")
        object.__setattr__(self, "bins", _readonly(b))

    @property
    def size(self) -> int:
        return int(self.bins.shape[0])

    @property
    def bin_width(self) -> float:
        return 1.0 / self.size

    def bin_centers(self) -> np.ndarray:
        b = self.size
        return (np.arange(b) + 0.5) / b


def noon_score(return_amp, transition_amp):
    """Best overlap-squared with the balanced edge superposition.

    Maximized over the relative phase of the target state, the overlap
    squared is ``(|c0| + |cN|)^2 / 2``; 1 for a perfect balanced
    superposition, 0.5 for a bare edge Fock state.  Scalars give a float,
    arrays of amplitudes an array of scores.
    """
    return _score_moduli(np.abs(return_amp), np.abs(transition_amp))


def _score_moduli(c0, cn):
    """:func:`noon_score` of the moduli ``c0`` and ``cn``, after the check
    that neither exceeds 1; the check fails on a NaN too."""
    if not (np.max(c0) <= 1.0 + AMPLITUDE_BOUND_TOL and np.max(cn) <= 1.0 + AMPLITUDE_BOUND_TOL):
        raise ValueError("amplitude moduli of normalized states cannot exceed 1")
    return (c0 + cn) ** 2 / 2.0


def _bin_edges(bins: int) -> np.ndarray:
    """The edges of ``bins`` equal bins over [0, 1]: ``np.histogram2d``'s inner
    edges, flanked by -inf and +inf so that bin ``j`` holds
    ``edges[j] <= x < edges[j + 1]`` and a modulus of 1 or above lies in the
    last bin."""
    return np.concatenate([[-math.inf], np.linspace(0.0, 1.0, bins + 1)[1:-1], [math.inf]])


def _bin_index(x: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """The bin of each modulus ``x`` (none NaN) among :func:`_bin_edges`'s
    ``edges``, as ``np.searchsorted`` of the inner edges gives it: the floor
    of ``x * bins`` is the bin or one off it, since the product and the edges
    are rounded, and one comparison with each neighbouring edge settles it."""
    bins = edges.size - 1
    j = np.minimum((x * bins).astype(np.intp), bins - 1)
    j -= x < edges[j]
    j += x >= edges[j + 1]
    return j


def default_sampling_window(params: ModelParams, energies) -> tuple[float, float]:
    """Default (t_max, dt) for histogram sampling.

    The window covers one thousand tunneling half-periods and the step
    oversamples the fastest spectral beat (the full span of the ascending
    line ``energies``, the first column of
    :func:`~cavity_rpm.core.edge_lines`, which holds the lines of both
    parity halves) twentyfold.
    """
    if params.j_tun > 0:
        t_max = 1000.0 * math.pi / params.j_tun
    else:
        t_max = 50.0
    span = float(energies[-1] - energies[0])
    if span > 0:
        dt = 2.0 * math.pi / (20.0 * span)
    else:
        dt = 0.01
    return t_max, dt


@dataclass(frozen=True)
class NoonFeasibility:
    """Summary of a feasibility scan: the best score, the earliest time
    attaining it, the fraction of samples scoring above ``threshold``, and the
    sample count."""

    max_score: float
    argmax_time: float
    fraction_above: float
    threshold: float
    n_samples: int


def noon_statistics(
    sym: LineSpectrum,
    anti: LineSpectrum,
    t_max: float,
    dt: float,
    bins: int = 50,
    threshold: float = 0.55,
) -> tuple[JointHistogram, NoonFeasibility, tuple[float, float]]:
    """Joint histogram, N00N scores and long-time means of the return and
    transition amplitudes of :func:`~cavity_rpm.dynamics.evolve`'s window.

    The halves are synthesized chunk by chunk without the common phase
    ``exp(-i c t)``, which leaves the moduli as they are, and each chunk is
    binned and scored and then dropped, so no full-length series exists and
    no exponential is taken per sample.  Returns the
    ``bins x bins`` histogram of ``(|c0|, |cN|)`` over ``[0, 1]^2``
    (``np.histogram2d``'s bins, a modulus of 1 or a few ulp above it in the
    last one), the summary of :func:`noon_score` (the best score, the time of
    its earliest sample, the fraction above ``threshold`` and the sample
    count, the only one the result holds) and the means of
    ``|c0|^2`` and ``|cN|^2``.  The bin count and the window are checked
    before any synthesis.
    """
    if bins < 2:
        raise ValueError(f"need at least 2 bins, got {bins}")
    edges = _bin_edges(bins)
    counts = np.zeros(bins * bins, dtype=np.int64)
    n_samples = 0
    best_score = -math.inf
    best_index = 0
    n_above = 0
    sum_c0_sq = 0.0
    sum_cn_sq = 0.0
    for _, return_amp, transition_amp in _chunks(sym, anti, t_max, dt):
        c0 = np.abs(return_amp)
        cn = np.abs(transition_amp)
        # scored first: the bound check refuses a NaN before it is binned
        scores = _score_moduli(c0, cn)
        row = _bin_index(c0, edges)
        row *= bins
        row += _bin_index(cn, edges)
        counts += np.bincount(row, minlength=counts.size)
        best = int(np.argmax(scores))
        # a later chunk takes the lead only with a strictly higher score, so
        # the index stays the earliest of the maximum
        if scores[best] > best_score:
            best_score = float(scores[best])
            best_index = n_samples + best
        n_above += int(np.count_nonzero(scores > threshold))
        sum_c0_sq += float(np.sum(np.square(c0, out=c0)))
        sum_cn_sq += float(np.sum(np.square(cn, out=cn)))
        n_samples += c0.size
    histogram = JointHistogram(bins=counts.reshape(bins, bins) / n_samples)
    feasibility = NoonFeasibility(
        max_score=best_score,
        # the time of sample k as the grid arange(n) * dt holds it
        argmax_time=best_index * dt,
        fraction_above=n_above / n_samples,
        threshold=threshold,
        n_samples=n_samples,
    )
    return histogram, feasibility, (sum_c0_sq / n_samples, sum_cn_sq / n_samples)
