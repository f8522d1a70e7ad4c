"""Recursive projection evaluation of the sector resolvent.

The N-photon sector of two exchange-symmetric cavities splits into nested
two-dimensional subspaces spanned by the mirror pairs
{|N/2+s, N/2-s>, |N/2-s, N/2+s>}, at distance s = k + (N mod 2)/2 from the
centre for depths k = 0..N//2.  Because tunneling only connects pair k to
pair k+1, the resolvent on pair k+1 follows from the resolvent on everything
inside it by a 2x2 block continued fraction.  Exchange symmetry keeps every
block of the form [[a, b], [b, a]], so two complex coefficients per depth
suffice:

    D = z - f(s+1) - t_s^2 a_k        B = t_s^2 b_k
    r = 1 / ((D - B)(D + B))
    a_{k+1} = D r                     b_{k+1} = B r

where f(s) is the pair energy and t_s^2 the squared tunneling amplitude
into the next pair; one complex division per depth forms r.  After N//2
steps a and b are the diagonal and cross resolvent elements on the edge
states |N,0>, |0,N>.

Depth 0 sits at s = (N mod 2)/2; let d = z - f(s).  For N = 2M it is the
centre state |M, M> counted twice, so a = b = 1/d; for N = 2M+1 it is the
centre pair {|M+1, M>, |M, M+1>}, coupled by -e = -J (M+1), so
a = d/((d-e)(d+e)) and b = -e/((d-e)(d+e)).  b is built purely by
multiplication and division, and nothing rescales it: where the cross
element is exponentially small it underflows.  On the 4001-point default
grid of an N=10^4 spectrum (epsilon 0.01) b is 0 at 2490 points and Im b at
2495, the ``zero_cross_points`` the CLI sidecars count.  ROADMAP item 4
tracks carrying b on a log scale.

Internally the recursion runs in the shifted variable y = z - omega0 N,
which removes the constant harmonic offset from every subtraction.  For even
N that makes the sign symmetry (y, g) -> (-y, -g) hold exactly in floating
point.  For odd N it holds to rounding, with b(-y, -g) = b(y, g): e keeps
its sign, and the factors of (d-e)(d+e) trade places.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .core import ModelParams, NearPoleError, NumericalFailureError

__all__ = [
    "pair_coupling_sq",
    "rpm_walk",
    "rpm_resolvent",
    "rpm_spectra",
]

DENOMINATOR_FLOOR = 1e-300


def _pair_interaction(params: ModelParams, s):
    """Pair energy f(s) of the pair at distance ``s`` from the centre; ``s``
    may be an array."""
    half = params.n_photons / 2.0
    return 2.0 * params.sigma * params.g * (np.sqrt(half + s) + np.sqrt(half - s))


def pair_coupling_sq(n_photons: int, s, j_tun: float):
    """Squared tunneling amplitude connecting the pair at distance s from the
    centre to the pair at s + 1: J^2 (N/2 + s + 1)(N/2 - s).  ``s`` may be an
    array."""
    half = n_photons / 2.0
    return j_tun**2 * (half + s + 1.0) * (half - s)


def _descend(params: ModelParams, z: np.ndarray) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """The one recursion loop behind :func:`rpm_walk` and :func:`rpm_resolvent`,
    over a 1-d complex array ``z``.

    Every depth yields the same two arrays ``a`` and ``b``, updated in place:
    the loop allocates nothing per depth.
    """
    if np.any(np.imag(z) == 0.0):
        raise ValueError("evaluate off the real axis: poles live on it")
    n = params.n_photons
    m = n // 2
    s = np.arange(m + 1) + n % 2 / 2
    f = _pair_interaction(params, s).tolist()
    t2 = pair_coupling_sq(n, s[:m], params.j_tun).tolist()
    y = z - n * params.omega0
    d = y - f[0]
    # depth 0: the centre state counted twice, or the centre pair coupled by -e
    if n % 2 == 0:
        num_a, num_b, den = 1.0, 1.0, d
    else:
        e = params.j_tun * (m + 1)
        num_a, num_b, den = d, -e, (d - e) * (d + e)
    if np.min(np.abs(den)) < DENOMINATOR_FLOOR:
        raise NearPoleError(
            "resolvent pole hit at depth 0; move z further off the real axis", depth=0
        )
    a = num_a / den
    b = num_b / den
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
        # a = D / den and b = B / den with one division: den becomes 1/den
        np.reciprocal(den, out=den)
        np.multiply(a, den, out=a)
        np.multiply(b, den, out=b)
        yield k + 1, a, b


def rpm_walk(params: ModelParams, z) -> Iterator[tuple[int, np.complex128 | np.ndarray,
                                                         np.complex128 | np.ndarray]]:
    """Yield ``(k, a, b)`` at every depth k from 0 through N//2.

    ``a`` is the diagonal resolvent element on either member of pair ``k``
    of the chain truncated at that pair; ``b`` is the element crossing the
    pair.  Depth 0 is the centre state at even N, where both equal its
    resolvent 1/(z - f(0)), and the centre pair at odd N.  ``a`` and ``b``
    are fresh arrays of ``z``'s shape at every depth, NumPy ``complex128``
    scalars for a scalar ``z``.  The last depth is :func:`rpm_resolvent` at
    the same ``z``, bit for bit.  Used for validation and failure
    localization; grid evaluation goes through :func:`rpm_resolvent`.
    """
    zs = np.asarray(z, dtype=complex)
    for k, a, b in _descend(params, zs.ravel()):
        yield k, a.reshape(zs.shape).copy()[()], b.reshape(zs.shape).copy()[()]


def rpm_resolvent(params: ModelParams, z):
    """Edge-state resolvent elements by the pair recursion.

    Parameters
    ----------
    params : ModelParams
    z : complex scalar or array
        Evaluation points, strictly off the real axis.

    Returns
    -------
    (a, b) : complex arrays of ``z``'s shape
        ``a = <N,0|(z-H)^-1|N,0>`` and ``b = <0,N|(z-H)^-1|N,0>``; NumPy
        ``complex128`` scalars for a scalar ``z``.

    Raises
    ------
    NearPoleError
        If a pair denominator underflows; carries the failing depth, 0 for
        the centre state (even N) or the centre pair (odd N).
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
    return a.reshape(zs.shape)[()], b.reshape(zs.shape)[()]


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

