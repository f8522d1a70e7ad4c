"""Single cavity coupled to a two-level atom.

Closed-form dressed energies, resonant Rabi dynamics of a
Fock state, and the dressed-basis photon matrix elements that control
tunneling between two such cavities.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    AmplitudeSeries,
    LineSpectrum,
    ModelParams,
    UnsupportedModelError,
)

__all__ = [
    "jc_energy",
    "rabi_amplitudes",
    "rabi_line_spectra",
    "dressed_photon_matrix_element",
]


def _check_branch(branch: int):
    if branch not in (1, -1):
        raise ValueError(f"branch must be +1 or -1, got {branch}")


def jc_energy(params: ModelParams, n: int, branch: int) -> float:
    """Energy of the dressed level (n, branch).

    Returns ``omega0 (n + 1/2) + branch sqrt(delta^2 + 4 g^2 (n+1))``.
    """
    if n < 0:
        raise ValueError(f"photon index must be >= 0, got {n}")
    _check_branch(branch)
    gap = math.sqrt(params.delta**2 + 4.0 * params.g**2 * (n + 1))
    return params.omega0 * (n + 0.5) + branch * gap


def rabi_amplitudes(params: ModelParams, times) -> tuple[AmplitudeSeries, AmplitudeSeries]:
    """Return and transition amplitudes of the initial state |n photons, ground atom>,
    with ``n = params.n_photons``.

    Only the resonant case is supported.  The two-dimensional invariant
    subspace {|n, ground>, |n-1, excited>} gives

        return(t)     = exp(-i omega0 (n - 1/2) t) cos(2 g sqrt(n) t)
        transition(t) = -i exp(-i omega0 (n - 1/2) t) sin(2 g sqrt(n) t)

    with the transition taken onto |n-1 photons, excited atom>.

    Raises
    ------
    UnsupportedModelError
        If ``params.delta != 0``; the closed form holds at resonance only.
    """
    if params.delta != 0.0:
        raise UnsupportedModelError("Rabi closed forms require zero detuning")
    n = params.n_photons
    t = np.asarray(times, dtype=float)
    phase = np.exp(-1j * params.omega0 * (n - 0.5) * t)
    omega_r = 2.0 * params.g * math.sqrt(n)
    ret = AmplitudeSeries(times=t, values=phase * np.cos(omega_r * t))
    tra = AmplitudeSeries(times=t, values=-1j * phase * np.sin(omega_r * t))
    return ret, tra


def rabi_line_spectra(params: ModelParams) -> tuple[LineSpectrum, LineSpectrum]:
    """Line spectra of the resonant Rabi problem for the initial state |n, ground>,
    with ``n = params.n_photons``, as two halves of one line each.

    The dressed levels ``omega0 (n - 1/2) -+ 2 g sqrt(n)`` are the even and
    odd combinations of |n, ground> and |n-1, excited>, the roles that the
    symmetric and antisymmetric halves play for two cavities: the initial
    state splits equally over them, with cross weight ``+-1/2`` onto
    |n-1, excited>.  The upper level is the symmetric one for g >= 0.
    """
    if params.delta != 0.0:
        raise UnsupportedModelError("Rabi line spectra require zero detuning")
    n = params.n_photons
    sym, anti = jc_energy(params, n - 1, +1), jc_energy(params, n - 1, -1)
    if params.g < 0:
        sym, anti = anti, sym
    return LineSpectrum([sym], [1.0]), LineSpectrum([anti], [1.0])


def dressed_photon_matrix_element(op_kind: str, k: int, branch_out: int, branch_in: int) -> float:
    """Photon ladder matrix element between dressed states.

    For ``op_kind="annihilate"`` the element between branches b', b is
    ``(sqrt(k+1) + sqrt(k)) / 2`` when b' = b and ``(sqrt(k+1) - sqrt(k)) / 2``
    otherwise.  For ``op_kind="create"`` the corresponding values are
    ``(sqrt(k+2) +- sqrt(k+1)) / 2``.  Matching branches keep an O(sqrt(k))
    element while branch flips are suppressed like 1/sqrt(k) at large k.

    The coupled-cavity sector in ``effective`` does not use these elements:
    it drops atomic flips as a modelling choice and keeps the bare bosonic
    tunneling amplitudes ``sqrt((k+1)(N-k))``.  The suppression does not
    justify that choice near the edge states, because a photon tunneling
    into an empty cavity |0, ground> lands with equal weight on both
    branches of the one-excitation doublet.
    """
    if k < 1:
        raise ValueError(f"matrix elements are defined for k >= 1, got {k}")
    _check_branch(branch_out)
    _check_branch(branch_in)
    same = branch_out == branch_in
    if op_kind == "annihilate":
        hi, lo = math.sqrt(k + 1), math.sqrt(k)
    elif op_kind == "create":
        hi, lo = math.sqrt(k + 2), math.sqrt(k + 1)
    else:
        raise ValueError(f"op_kind must be 'annihilate' or 'create', got {op_kind!r}")
    return (hi + lo) / 2.0 if same else (hi - lo) / 2.0
