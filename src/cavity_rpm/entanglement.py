"""Joint return/transition statistics and N00N-state scoring.

Sampling the two amplitude moduli over a long time window estimates how
often the dynamics visits states with appreciable weight on both edge
Fock states at once, which is the precondition for dynamically forming
the balanced superposition (|N,0> + |0,N>) / sqrt(2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import AMPLITUDE_BOUND_TOL, AmplitudeSeries, ModelParams, _readonly

__all__ = [
    "JointAccumulator",
    "JointHistogram",
    "NoonFeasibility",
    "sample_joint",
    "noon_score",
    "score_samples",
    "default_sampling_window",
]

HISTOGRAM_SUM_TOL = 1e-12


@dataclass(frozen=True)
class JointHistogram:
    """Normalized B x B histogram of (|c0|, |cN|) over [0,1]^2."""

    bins: np.ndarray
    n_samples: int

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
    c0 = np.abs(return_amp)
    cn = np.abs(transition_amp)
    if not (np.max(c0) <= 1.0 + AMPLITUDE_BOUND_TOL and np.max(cn) <= 1.0 + AMPLITUDE_BOUND_TOL):
        raise ValueError("amplitude moduli of normalized states cannot exceed 1")
    return (c0 + cn) ** 2 / 2.0


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


class JointAccumulator:
    """Running statistics of the joint moduli ``(|c0|, |cN|)`` of one window,
    fed its samples chunk by chunk in time order with :meth:`add`.

    It keeps the counts of a ``bins x bins`` histogram over ``[0, 1]^2``
    (``np.histogram2d``'s bins, a modulus of 1 or a few ulp above it in the
    last one), the best :func:`noon_score` and the index of its earliest
    sample, the count of scores above ``threshold``, the sample count and the
    sums of ``|c0|^2`` and ``|cN|^2``.  A whole series fed as one chunk gives
    :func:`sample_joint` and :func:`score_samples`; any split of it into
    chunks gives the same histogram and scores.
    """

    def __init__(self, bins: int = 50, threshold: float = 0.55):
        if bins < 2:
            raise ValueError(f"need at least 2 bins, got {bins}")
        self.bins = bins
        self.threshold = threshold
        # the inner edges of np.histogram2d's bins: a modulus of 1 or above
        # lies right of all of them, in the last bin
        self._inner_edges = np.linspace(0.0, 1.0, bins + 1)[1:-1]
        self._counts = np.zeros(bins * bins, dtype=np.int64)
        self.n_samples = 0
        self.best_score = -math.inf
        self.best_index = 0
        self.n_above = 0
        self.sum_c0_sq = 0.0
        self.sum_cn_sq = 0.0

    def add(self, return_amp, transition_amp):
        """Take the next samples of the return and transition amplitudes."""
        c0 = np.abs(return_amp)
        cn = np.abs(transition_amp)
        scores = noon_score(c0, cn)
        row = np.searchsorted(self._inner_edges, c0, side="right")
        row *= self.bins
        row += np.searchsorted(self._inner_edges, cn, side="right")
        self._counts += np.bincount(row, minlength=self._counts.size)
        best = int(np.argmax(scores))
        # a later chunk takes the lead only with a strictly higher score, so
        # the index stays the earliest of the maximum
        if scores[best] > self.best_score:
            self.best_score = float(scores[best])
            self.best_index = self.n_samples + best
        self.n_above += int(np.count_nonzero(scores > self.threshold))
        self.sum_c0_sq += float(np.sum(np.square(c0, out=c0)))
        self.sum_cn_sq += float(np.sum(np.square(cn, out=cn)))
        self.n_samples += c0.size

    def histogram(self) -> JointHistogram:
        """The histogram of the samples taken, normalized to mass one."""
        return JointHistogram(bins=self._counts.reshape(self.bins, self.bins) / self.n_samples,
                              n_samples=self.n_samples)

    def feasibility(self, argmax_time: float) -> NoonFeasibility:
        """The summary of the scores, with ``argmax_time`` the time of sample
        ``best_index``."""
        return NoonFeasibility(
            max_score=self.best_score,
            argmax_time=argmax_time,
            fraction_above=self.n_above / self.n_samples,
            threshold=self.threshold,
            n_samples=self.n_samples,
        )


def sample_joint(ret: AmplitudeSeries, tra: AmplitudeSeries, bins: int = 50) -> JointHistogram:
    """Histogram the joint moduli (|return(t)|, |transition(t)|).

    Both series must share the identical time grid.  Mass is normalized to
    one; the axes are amplitude moduli on [0, 1].
    """
    stats = JointAccumulator(bins)
    if not np.array_equal(ret.times, tra.times):
        raise ValueError("return and transition series must share one time grid")
    stats.add(ret.values, tra.values)
    return stats.histogram()


def score_samples(
    ret: AmplitudeSeries, tra: AmplitudeSeries, threshold: float = 0.55
) -> NoonFeasibility:
    """Score every sample with :func:`noon_score` and summarize the window.

    Reports the best score, the earliest time attaining it and the fraction
    of samples scoring above ``threshold``.
    """
    stats = JointAccumulator(threshold=threshold)
    stats.add(ret.values, tra.values)
    return stats.feasibility(float(ret.times[stats.best_index]))
