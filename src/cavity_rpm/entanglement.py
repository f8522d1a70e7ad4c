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

from .core import AMPLITUDE_BOUND_TOL, AmplitudeSeries, ModelParams, _readonly, edge_lines
from .dynamics import evolve
from .effective import build_sector_hamiltonian, parity_chain_spectra

__all__ = [
    "JointHistogram",
    "NoonFeasibility",
    "sample_joint",
    "noon_score",
    "score_samples",
    "noon_feasibility",
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
        if np.any(b < 0):
            raise ValueError("histogram mass cannot be negative")
        if abs(float(b.sum()) - 1.0) > HISTOGRAM_SUM_TOL:
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


def sample_joint(ret: AmplitudeSeries, tra: AmplitudeSeries, bins: int = 50) -> JointHistogram:
    """Histogram the joint moduli (|return(t)|, |transition(t)|).

    Both series must share the identical time grid.  Mass is normalized to
    one; the axes are amplitude moduli on [0, 1].
    """
    if bins < 2:
        raise ValueError(f"need at least 2 bins, got {bins}")
    if not np.array_equal(ret.times, tra.times):
        raise ValueError("return and transition series must share one time grid")
    # rounding can push a modulus a few ulp past 1; clip instead of dropping
    counts, _, _ = np.histogram2d(
        np.minimum(np.abs(ret.values), 1.0), np.minimum(np.abs(tra.values), 1.0),
        bins=bins, range=[[0.0, 1.0], [0.0, 1.0]],
    )
    n = len(ret)
    return JointHistogram(bins=counts / n, n_samples=n)


def noon_score(return_amp, transition_amp):
    """Best overlap-squared with the balanced edge superposition.

    Maximized over the relative phase of the target state, the overlap
    squared is ``(|c0| + |cN|)^2 / 2``; 1 for a perfect balanced
    superposition, 0.5 for a bare edge Fock state.  Scalars give a float,
    arrays of amplitudes an array of scores.
    """
    c0 = np.abs(return_amp)
    cn = np.abs(transition_amp)
    if np.max(c0) > 1.0 + AMPLITUDE_BOUND_TOL or np.max(cn) > 1.0 + AMPLITUDE_BOUND_TOL:
        raise ValueError("amplitude moduli of normalized states cannot exceed 1")
    return (c0 + cn) ** 2 / 2.0


def default_sampling_window(params: ModelParams, energies) -> tuple[float, float]:
    """Default (t_max, dt) for histogram sampling.

    The window covers one thousand tunneling half-periods and the step
    oversamples the fastest spectral beat (the full span of the ascending
    line ``energies``, as :func:`~cavity_rpm.core.edge_lines` gives them)
    twentyfold.
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
    """Summary triple of a feasibility scan."""

    max_score: float
    argmax_time: float
    fraction_above: float
    threshold: float
    n_samples: int


def score_samples(
    ret: AmplitudeSeries, tra: AmplitudeSeries, threshold: float = 0.55
) -> NoonFeasibility:
    """Score every sample with :func:`noon_score` and summarize the window.

    Reports the best score, the earliest time attaining it and the fraction
    of samples scoring above ``threshold``.
    """
    scores = noon_score(ret.values, tra.values)
    best = int(np.argmax(scores))
    return NoonFeasibility(
        max_score=float(scores[best]),
        argmax_time=float(ret.times[best]),
        fraction_above=float(np.mean(scores > threshold)),
        threshold=threshold,
        n_samples=len(ret),
    )


def noon_feasibility(
    params: ModelParams,
    t_max: float | None = None,
    dt: float | None = None,
    threshold: float = 0.55,
) -> NoonFeasibility:
    """Scan the evolved dynamics and summarize N00N-state reachability.

    Evolves the sector's parity-chain halves over the window and summarizes
    it with :func:`score_samples`.
    """
    halves = parity_chain_spectra(build_sector_hamiltonian(params))
    if t_max is None or dt is None:
        auto_tmax, auto_dt = default_sampling_window(params, edge_lines(*halves)[0])
        t_max = auto_tmax if t_max is None else t_max
        dt = auto_dt if dt is None else dt
    ret, tra = evolve(*halves, t_max, dt)
    return score_samples(ret, tra, threshold)
