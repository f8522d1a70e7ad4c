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
    """Binomial line spectra of the two parity halves of the N-photon sector at g = 0.

    Level k sits at ``omega0 N + J (N - 2k)`` with edge weight
    ``C(N,k) / 2^N`` and cross weight ``(-1)^k C(N,k) / 2^N``, so even k
    form the symmetric half and odd k the antisymmetric one, each line with
    weight ``2 C(N,k) / 2^N``.  Each ``C(N,k) / 2^N`` is the correctly
    rounded quotient of exact integers, so no intermediate overflows at large
    N; weights below double range round to zero.  At J = 0 each half's
    levels coincide and merge into one line.
    """
    n = params.n_photons
    _require_even(n)
    k = np.arange(n + 1)
    energies = params.omega0 * n + params.j_tun * (n - 2.0 * k)
    weights = np.empty(n + 1)
    total = 1 << n
    binomial = 1
    for i in range(n + 1):
        # doubled after the quotient, so that halving it back is exact
        weights[i] = 2.0 * (binomial / total)
        binomial = binomial * (n - i) // (i + 1)
    halves = []
    for parity in (0, 1):
        merged_e, (w,) = merge_degenerate_lines(energies[parity::2], [weights[parity::2]])
        halves.append(LineSpectrum(merged_e, w))
    return tuple(halves)


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
