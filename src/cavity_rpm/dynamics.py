"""Time-domain synthesis of return and transition amplitudes."""

from __future__ import annotations

import math

import numpy as np

from .core import AmplitudeSeries, LineSpectrum, ModelParams, _block_sums, _common_phase

__all__ = ["evolve", "first_transfer_time", "default_time_grid"]

TRANSFER_FLOOR = 1e-6


def default_time_grid(params: ModelParams) -> tuple[float, float]:
    """Default (t_max, dt): fine enough for the fastest rate among J, g and 1."""
    scale = max(params.j_tun, abs(params.g), 1.0)
    return 50.0, 0.01 / scale


def evolve(
    spec00: LineSpectrum,
    specN0: LineSpectrum,
    t_max: float,
    dt: float,
) -> tuple[AmplitudeSeries, AmplitudeSeries]:
    """Return and transition amplitudes ``c0(t)``, ``cN(t)`` on a shared uniform grid.

    The two spectra must come from the same decomposition, which after the
    shared degeneracy merge means equal energies.  By exchange symmetry
    ``c0 + cN`` is a sum over the symmetric chain's lines alone and
    ``c0 - cN`` over the antisymmetric chain's.  Each of these halves is
    synthesized once, over its lines of nonzero weight ``w00 +- wN0``, with
    the block algorithm of :func:`~cavity_rpm.core.amplitude_from_lines`.
    Both are measured from the centre ``c`` of the full line span, so the
    common phase ``exp(-i c t)`` is computed once for the two series.
    Spectra without exact zeros in a half (the dense oracle's) keep every
    line in both halves.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not math.isfinite(t_max):
        raise ValueError(f"t_max must be finite, got {t_max}")
    if t_max < dt:
        raise ValueError(f"t_max must be at least dt, got t_max={t_max}, dt={dt}")
    energies = spec00.energies
    if not np.array_equal(energies, specN0.energies):
        raise ValueError(
            "line counts or energies differ; spectra must come from the same decomposition"
        )
    n_steps = int(math.floor(t_max / dt + 1e-12))
    times = np.arange(n_steps + 1) * dt
    centre = 0.5 * (energies[0] + energies[-1])
    # c0 = (S + A)/2 P and cN = (S - A)/2 P; halving P instead is exact
    phase = _common_phase(centre, times)
    phase *= 0.5
    plus, minus = (
        _block_sums(energies[w != 0], w[w != 0], times, centre)
        for w in (spec00.weights + specN0.weights, spec00.weights - specN0.weights)
    )
    # few full-length buffers: cN takes S's place, and A and P go before the
    # series copy c0 and cN
    c0 = plus + minus
    cn = np.subtract(plus, minus, out=plus)
    del minus
    c0 *= phase
    cn *= phase
    del phase
    return AmplitudeSeries(times=times, values=c0), AmplitudeSeries(times=times, values=cn)


def first_transfer_time(transition: AmplitudeSeries, threshold: float):
    """Earliest local maximum of |transition| reaching threshold * global max.

    Uses a three-point local-maximum test on interior grid points; plateau
    ties resolve to the earliest index.  Returns None when the series never
    exceeds an absolute floor of 1e-6 or no qualifying peak exists.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must lie in (0, 1], got {threshold}")
    mags = np.abs(transition.values)
    peak = float(mags.max())
    if peak < TRANSFER_FLOOR:
        return None
    cut = threshold * peak
    interior = (
        (mags[1:-1] >= mags[:-2]) & (mags[1:-1] >= mags[2:]) & (mags[1:-1] >= cut)
    )
    hits = np.nonzero(interior)[0]
    if hits.size == 0:
        return None
    return float(transition.times[hits[0] + 1])
