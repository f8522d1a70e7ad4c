"""Two tunnel-coupled harmonic cavities sharing N photons: closed forms.

The interaction-free baseline. Eigenstates overlap the edge Fock state
binomially, the spectrum is exactly equidistant with spacing 2J, and the
amplitudes are powers of sine and cosine.
"""

from __future__ import annotations

import numpy as np

from .core import (
    AmplitudeSeries,
    LineSpectrum,
    ModelParams,
    UnsupportedModelError,
    merge_degenerate_lines,
)

__all__ = ["harmonic_line_spectra", "harmonic_amplitudes"]


def _require_even(n: int):
    if n % 2 != 0:
        raise UnsupportedModelError(f"closed forms assume an even photon number, got N={n}")


def harmonic_line_spectra(params: ModelParams) -> tuple[LineSpectrum, LineSpectrum]:
    """Binomial line spectra of the N-photon sector at g = 0.

    Levels sit at ``omega0 N + J (N - 2k)`` with diagonal weight
    ``C(N,k) / 2^N`` and cross weight ``(-1)^k C(N,k) / 2^N``.  Each weight
    is the correctly rounded quotient of exact integers, so no intermediate
    overflows at large N; weights below double range round to zero.
    """
    n = params.n_photons
    _require_even(n)
    k = np.arange(n + 1)
    energies = params.omega0 * n + params.j_tun * (n - 2.0 * k)
    w00 = np.empty(n + 1)
    total = 1 << n
    binomial = 1
    for i in range(n + 1):
        w00[i] = binomial / total
        binomial = binomial * (n - i) // (i + 1)
    w10 = w00 * (-1.0) ** k
    merged_e, (m00, m10) = merge_degenerate_lines(energies, [w00, w10])
    return (
        LineSpectrum(energies=merged_e, weights=m00, kind="diagonal"),
        LineSpectrum(energies=merged_e, weights=m10, kind="offdiagonal"),
    )


def harmonic_amplitudes(params: ModelParams, times) -> tuple[AmplitudeSeries, AmplitudeSeries]:
    """Closed-form amplitudes: cos^N(Jt) and (-i)^N sin^N(Jt), common phase exp(-i omega0 N t)."""
    n = params.n_photons
    _require_even(n)
    t = np.asarray(times, dtype=float)
    phase = np.exp(-1j * params.omega0 * n * t)
    ret = phase * np.cos(params.j_tun * t) ** n
    tra = phase * (-1j) ** n * np.sin(params.j_tun * t) ** n
    return (
        AmplitudeSeries(times=t, values=ret),
        AmplitudeSeries(times=t, values=tra),
    )
