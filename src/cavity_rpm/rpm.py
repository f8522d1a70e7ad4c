"""Recursive projection evaluation of the sector resolvent.

The N-photon sector (N even) of two exchange-symmetric cavities splits
into nested two-dimensional subspaces spanned by the mirror pairs
{|N/2+k, N/2-k>, |N/2-k, N/2+k>}, k = 1..N/2, around the single balanced
center state |N/2, N/2>.  Because tunneling only connects pair k to pair
k+1, the resolvent on pair k+1 follows from the resolvent on everything
inside it by a 2x2 block continued fraction.  Exchange symmetry keeps
every block of the form [[a, b], [b, a]], so two complex coefficients per
depth suffice:

    D = z - f(k+1) - t_k^2 a_k        B = t_k^2 b_k
    a_{k+1} = D / (D^2 - B^2)         b_{k+1} = B / (D^2 - B^2)

where f(k) is the pair energy and t_k^2 the squared tunneling amplitude
into the next pair.  After N/2 steps a and b are the diagonal and cross
resolvent elements on the edge states |N,0>, |0,N>.

The walk is seeded at depth 0 with a = b = 1/(z - f(0)): the depth-0
"pair" is the center state counted twice, so its diagonal and cross
elements coincide.  b is built purely by multiplication and division, but
nothing rescales it: where the cross element is exponentially small it
underflows to exactly 0, and nothing reports that.  On the 4001-point
default grid of an N=10^4 spectrum (epsilon 0.01) b is 0 at 2490 points.
ROADMAP item 4 tracks carrying it on a log scale.

Internally the recursion runs in the shifted variable y = z - omega0 N,
which removes the constant harmonic offset from every subtraction. That
makes the sign symmetry (y, g) -> (-y, -g) hold exactly in floating
point, not just analytically.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .core import ModelParams, NearPoleError, NumericalFailureError, UnsupportedModelError

__all__ = [
    "pair_coupling_sq",
    "rpm_walk",
    "rpm_resolvent",
    "rpm_spectra",
]

DENOMINATOR_FLOOR = 1e-300


def _pair_interaction(params: ModelParams, k):
    """Pair energy f(k); ``k`` may be an integer array."""
    half = params.n_photons / 2.0
    return 2.0 * params.sigma * params.g * (np.sqrt(half + k) + np.sqrt(half - k))


def pair_coupling_sq(n_photons: int, k, j_tun: float):
    """Squared tunneling amplitude connecting pair k to pair k+1:
    J^2 (N/2 + k + 1)(N/2 - k).  ``k`` may be an integer array."""
    half = n_photons / 2.0
    return j_tun**2 * (half + k + 1.0) * (half - k)


def _check_even(params: ModelParams):
    if params.n_photons % 2 != 0:
        raise UnsupportedModelError(
            f"the pair recursion needs an even photon number, got N={params.n_photons}"
        )


def _descend(params: ModelParams, z: np.ndarray) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """The one recursion loop behind :func:`rpm_walk` and :func:`rpm_resolvent`,
    over a 1-d complex array ``z``.

    Every depth yields the same two arrays ``a`` and ``b``, updated in place:
    the loop allocates nothing per depth.
    """
    _check_even(params)
    if np.any(np.imag(z) == 0.0):
        raise ValueError("evaluate off the real axis: poles live on it")
    m = params.n_photons // 2
    f = _pair_interaction(params, np.arange(m + 1)).tolist()
    t2 = pair_coupling_sq(params.n_photons, np.arange(m), params.j_tun).tolist()
    y = z - params.n_photons * params.omega0
    a = 1.0 / (y - f[0])
    b = a.copy()
    yield 0, a, b
    den = np.empty_like(a)
    tmp = np.empty_like(a)
    re = np.empty(a.shape)
    for k in range(m):
        # D = y - f(k+1) - t2 a and B = t2 b, held in a and b
        np.subtract(y, f[k + 1], out=tmp)
        np.multiply(t2[k], a, out=a)
        np.subtract(tmp, a, out=a)
        np.multiply(t2[k], b, out=b)
        # den = (D - B)(D + B)
        np.subtract(a, b, out=den)
        np.add(a, b, out=tmp)
        np.multiply(den, tmp, out=den)
        # |den| >= |Re den|, so the modulus of every point is needed only
        # where the real part falls below the floor (or is NaN)
        np.abs(den.real, out=re)
        if not re.min() >= DENOMINATOR_FLOOR and np.min(np.abs(den)) < DENOMINATOR_FLOOR:
            raise NearPoleError(
                f"resolvent pole hit at depth {k + 1}; "
                "move z further off the real axis",
                depth=k + 1,
            )
        np.divide(a, den, out=a)
        np.divide(b, den, out=b)
        yield k + 1, a, b


def rpm_walk(params: ModelParams, z: complex) -> Iterator[tuple[int, complex, complex]]:
    """Yield ``(k, a, b)`` at every depth k from 0 through N/2.

    ``a`` is the diagonal resolvent element on either member of pair ``k``
    of the chain truncated at that pair; ``b`` is the element crossing the
    pair.  At depth 0 both equal the center-state resolvent 1/(z - f(0)).
    Used for validation and failure localization; grid evaluation goes
    through :func:`rpm_resolvent`.
    """
    for k, a, b in _descend(params, np.array([z], dtype=complex)):
        yield k, complex(a[0]), complex(b[0])


def rpm_resolvent(params: ModelParams, z):
    """Edge-state resolvent elements by the pair recursion.

    Parameters
    ----------
    params : ModelParams
        N must be even.
    z : complex scalar or array
        Evaluation points, strictly off the real axis.

    Returns
    -------
    (a, b) : complex scalars or arrays
        ``a = <N,0|(z-H)^-1|N,0>`` and ``b = <0,N|(z-H)^-1|N,0>``.

    Raises
    ------
    UnsupportedModelError
        For odd N.
    NearPoleError
        If a pair denominator underflows; carries the failing depth.
    NumericalFailureError
        If ``a`` or ``b`` is not finite, or ``a`` is 0: a pair denominator,
        about ``|z|^2``, overflowed.
    """
    zs = np.asarray(z, dtype=complex)
    # the last depth is the edge pair.  Far from the spectrum a pair
    # denominator can overflow, which the check below reports
    with np.errstate(over="ignore", invalid="ignore"):
        for _, a, b in _descend(params, zs.ravel()):
            pass
    # checked once on the result: a non-finite value carries to the last depth;
    # off the real axis a is never 0, but reads 0 where its denominator overflowed
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b)) and np.all(a != 0)):
        raise NumericalFailureError("the pair recursion overflowed; evaluate nearer the spectrum")
    if zs.ndim == 0:
        return complex(a[0]), complex(b[0])
    return a.reshape(zs.shape), b.reshape(zs.shape)


def rpm_spectra(params: ModelParams, energies, epsilon: float):
    """Broadened spectral densities from the recursion.

    Evaluates the resolvent at ``z = E - i epsilon`` over the grid and
    returns ``((1/pi) Im a, (1/pi) Im b)`` as real arrays.
    """
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    grid = np.asarray(energies, dtype=float)
    if grid.size == 0:
        raise ValueError("energy grid must be non-empty")
    a, b = rpm_resolvent(params, grid - 1j * epsilon)
    return np.imag(a) / np.pi, np.imag(b) / np.pi

