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
    sym: LineSpectrum,
    anti: LineSpectrum,
    t_max: float,
    dt: float,
) -> tuple[AmplitudeSeries, AmplitudeSeries]:
    """Return and transition amplitudes ``c0(t)``, ``cN(t)`` on a shared uniform grid.

    ``c0 = (S + A)/2`` and ``cN = (S - A)/2``, with ``S`` and ``A`` the
    amplitudes of the symmetric and the antisymmetric half.  Each half is
    synthesized once with the block algorithm of
    :func:`~cavity_rpm.core.amplitude_from_lines`, both measured from the
    centre ``c`` of the span of all lines, so the common phase
    ``exp(-i c t)`` is computed once for the two series.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not math.isfinite(t_max):
        raise ValueError(f"t_max must be finite, got {t_max}")
    if t_max < dt:
        raise ValueError(f"t_max must be at least dt, got t_max={t_max}, dt={dt}")
    n_steps = int(math.floor(t_max / dt + 1e-12))
    times = np.arange(n_steps + 1) * dt
    lowest = min(sym.energies[0], anti.energies[0])
    highest = max(sym.energies[-1], anti.energies[-1])
    centre = 0.5 * (lowest + highest)
    # c0 = (S + A)/2 P and cN = (S - A)/2 P; halving P instead is exact
    phase = _common_phase(centre, times)
    phase *= 0.5
    plus, minus = (_block_sums(s.energies, s.weights, times, centre) for s in (sym, anti))
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
