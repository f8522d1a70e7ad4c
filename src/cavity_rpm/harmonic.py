"""Two tunnel-coupled harmonic cavities sharing N photons: closed forms.

The interaction-free baseline. Eigenstates overlap the edge Fock state
binomially, the spectrum is exactly equidistant with spacing 2J, and the
amplitudes are powers of sine and cosine.
"""

from __future__ import annotations

import numpy as np

from .core import AmplitudeSeries, LineSpectrum, ModelParams, _merge_equal_levels

__all__ = ["harmonic_line_spectra", "harmonic_amplitudes"]


def harmonic_line_spectra(params: ModelParams) -> tuple[LineSpectrum, LineSpectrum]:
    """Binomial line spectra of the two parity halves of the N-photon sector at g = 0.

    Level k sits at ``omega0 N + J (N - 2k)`` with edge weight ``C(N,k) / 2^N``
    and cross weight ``(-1)^(N-k) C(N,k) / 2^N``, so the k of N's parity form
    the symmetric half and the others the antisymmetric one, each line with
    weight ``2 C(N,k) / 2^N``.  Each ``C(N,k) / 2^N`` is the correctly rounded
    quotient of exact integers, so no intermediate overflows at large N;
    weights below double range round to zero.  Levels of a half that
    coincide in floating point form one line, with the sum of their weights:
    at J = 0, or where J lies below the rounding of ``omega0 N``, each half
    is the single line ``omega0 N``.
    """
    n = params.n_photons
    k = np.arange(n + 1)
    # an energy beyond double range is refused below by LineSpectrum, by name
    with np.errstate(over="ignore"):
        energies = params.omega0 * n + params.j_tun * (n - 2.0 * k)
    weights = np.empty(n + 1)
    total = 1 << n
    binomial = 1
    for i in range(n + 1):
        # doubled after the quotient, so that halving it back is exact
        weights[i] = 2.0 * (binomial / total)
        binomial = binomial * (n - i) // (i + 1)
    return tuple(
        LineSpectrum(*_merge_equal_levels(energies[parity::2], weights[parity::2]))
        for parity in (n % 2, 1 - n % 2))


def harmonic_amplitudes(params: ModelParams, times) -> tuple[AmplitudeSeries, AmplitudeSeries]:
    """Closed-form amplitudes: cos^N(Jt) and i^N sin^N(Jt), common phase exp(-i omega0 N t)."""
    n = params.n_photons
    t = np.asarray(times, dtype=float)
    phase = np.exp(-1j * params.omega0 * n * t)
    ret = phase * np.cos(params.j_tun * t) ** n
    # i^(N mod 4) is exact, where i^N is not for N > 100
    tra = phase * 1j ** (n % 4) * np.sin(params.j_tun * t) ** n
    return (
        AmplitudeSeries(times=t, values=ret),
        AmplitudeSeries(times=t, values=tra),
    )
