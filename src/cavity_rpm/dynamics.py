"""Time-domain synthesis of return and transition amplitudes."""

from __future__ import annotations

import math

import numpy as np

from .core import AmplitudeSeries, LineSpectrum, ModelParams

__all__ = ["evolve", "first_transfer_time", "default_time_grid"]

TRANSFER_FLOOR = 1e-6
# blocks of the synthesis evaluated at once, as one matrix product
_CHUNK_BLOCKS = 64
# lines summed by one matrix product of a chunk: BLAS may split a longer sum
# among its threads, in an order that depends on their count
_PRODUCT_LINES = 64
# the largest time grid: 2^30 samples, over 500 times the default noon
# window, whose chunks of 64 blocks of 2^15 samples still fit in memory
_MAX_SAMPLES = 2**30


def default_time_grid(params: ModelParams) -> tuple[float, float]:
    """Default (t_max, dt): fine enough for the fastest rate among J, g and 1."""
    scale = max(params.j_tun, abs(params.g), 1.0)
    return 50.0, 0.01 / scale


def _two_product(a: float, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a * b`` as a rounded product plus its exact rounding error (Dekker)."""

    def split(x):
        # Veltkamp: 26 high bits and the rest, so that partial products are exact
        scaled = 134217729.0 * x
        high = scaled - (scaled - x)
        return high, x - high

    product = a * b
    a_hi, a_lo = split(np.float64(a))
    b_hi, b_lo = split(b)
    # ((a_hi b_hi - product) + a_hi b_lo + a_lo b_hi) + a_lo b_lo, in this order,
    # summed in place to keep temporaries few
    error = a_hi * b_hi
    error -= product
    error += a_hi * b_lo
    error += a_lo * b_hi
    error += a_lo * b_lo
    return product, error


def _sample_count(t_max: float, dt: float) -> int:
    """Samples of the grid ``t_k = k dt``, ``k = 0..floor(t_max / dt)``.

    Raises ``ValueError`` unless ``0 < dt <= t_max`` with ``t_max / dt``
    finite and at most ``_MAX_SAMPLES`` samples.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not math.isfinite(t_max):
        raise ValueError(f"t_max must be finite, got {t_max}")
    if t_max < dt:
        raise ValueError(f"t_max must be at least dt, got t_max={t_max}, dt={dt}")
    if not math.isfinite(t_max / dt):
        raise ValueError(f"time grid too large: t_max / dt = {t_max / dt} steps")
    n = int(math.floor(t_max / dt + 1e-12)) + 1
    if n > _MAX_SAMPLES:
        raise ValueError(f"time grid too large: {n} samples, at most {_MAX_SAMPLES}")
    return n


def _block_sums(energies: np.ndarray, weights: np.ndarray, n: int, dt: float, centre: float):
    """Yield ``sum_j w_j exp(-i (E_j - c) t)`` on :func:`evolve`'s grid
    ``arange(n) * dt``, n >= 2, chunk by chunk in time order: its block
    synthesis without the common phase ``exp(-i c t)``.

    A chunk holds ``_CHUNK_BLOCKS`` blocks, and the last one also the partial
    block at the end, so that no chunk is shorter than a block.  Each chunk
    is the matrix product of its phasors, a row per block, with the ``L x B``
    table, summed over ``_PRODUCT_LINES`` lines at a time in line order; the
    partial block rides in it and is cut to its samples.  A row's last bits
    depend on the row count of its product.
    Takes any number of lines, none included (the sums are then zero).
    Lines of zero weight add nothing and are skipped.
    """
    reached = weights != 0
    energies, weights = energies[reached], weights[reached]
    block = math.ceil(math.sqrt(n))
    # the step as the span over n - 1, which can differ from dt in the last
    # bit: the written series carry its rounding
    offsets = np.arange(block) * ((n - 1) * dt / (n - 1))
    shifted = energies - centre
    table = np.exp(-1j * np.outer(shifted, offsets))
    complete = n // block
    for first in range(0, complete, _CHUNK_BLOCKS):
        last = first + _CHUNK_BLOCKS
        stop = last * block if last < complete else n
        # phasors at each block's own first time k dt, as arange(n) * dt gives it
        starts = np.arange(first * block, stop, block)
        phasors = weights * np.exp(-1j * np.outer(starts * dt, shifted))
        sums = phasors[:, :_PRODUCT_LINES] @ table[:_PRODUCT_LINES]
        for lo in range(_PRODUCT_LINES, shifted.size, _PRODUCT_LINES):
            sums += phasors[:, lo:lo + _PRODUCT_LINES] @ table[lo:lo + _PRODUCT_LINES]
        yield sums.reshape(-1)[:stop - first * block]


def _common_phase(centre: float, times: np.ndarray) -> np.ndarray:
    """``exp(-i c t)`` with ``c t`` carried to twice working precision."""
    phase, error = _two_product(centre, times)
    # |error| <= ulp(c t) / 2, so exp(-i error) = 1 - i error to within eps^2
    return np.exp(-1j * phase) * (1.0 - 1j * error)


def _centre(sym: LineSpectrum, anti: LineSpectrum) -> float:
    """The centre of the span of the lines of both halves."""
    return 0.5 * (min(sym.energies[0], anti.energies[0])
                  + max(sym.energies[-1], anti.energies[-1]))


def _chunks(sym: LineSpectrum, anti: LineSpectrum, t_max: float, dt: float):
    """Yield ``(start, c0, cN)``: the halves ``(S + A)/2`` and ``(S - A)/2``
    chunk by chunk in time order, from sample ``start`` on, without the
    common phase ``exp(-i c t)`` of :func:`evolve`'s series, so with their
    moduli.  Checks the window before any work."""
    n = _sample_count(t_max, dt)
    centre = _centre(sym, anti)
    start = 0
    # halving the weights halves the sums, exactly above the subnormal range
    for plus, minus in zip(*(_block_sums(s.energies, 0.5 * s.weights, n, dt, centre)
                             for s in (sym, anti))):
        c0 = plus + minus
        yield start, c0, np.subtract(plus, minus, out=plus)
        start += c0.size


def evolve(
    sym: LineSpectrum,
    anti: LineSpectrum,
    t_max: float,
    dt: float,
) -> tuple[AmplitudeSeries, AmplitudeSeries]:
    """Return and transition amplitudes ``c0(t)``, ``cN(t)`` on the grid
    ``t_k = k dt``, ``k = 0..floor(t_max / dt)``.

    ``c0 = (S + A)/2`` and ``cN = (S - A)/2``, with ``S`` and ``A`` the
    amplitudes ``sum_j w_j exp(-i E_j t)`` of the symmetric and the
    antisymmetric half; one spectrum's amplitude is ``evolve(spec, spec, ...)[0]``.

    Each half is synthesized in blocks of ``B = ceil(sqrt(n))`` of the n
    samples.  With the energies measured from the centre ``c`` of the span of
    all lines, one table ``exp(-i (E_j - c) s dt)`` for ``s = 0..B-1`` serves
    every block; each block multiplies it by its own phasors
    ``w_j exp(-i (E_j - c) t_b)``, taken directly at the block's first time
    ``t_b`` so that no rounding carries from one block to the next.  The
    blocks are evaluated a chunk of ``_CHUNK_BLOCKS`` at a time, one matrix
    product per chunk.  The common phase ``exp(-i c t)`` is applied chunk by
    chunk, once for the two series, as the chunks are copied into them, with
    ``c t`` carried to twice working precision so that it adds no error
    shared by all lines; it costs one exponential and one two-product per
    sample.  That is about ``2 sqrt(n) L + n`` complex exponentials for L
    lines of nonzero weight, instead of ``n L``, and apart from the two
    series the memory is O(sqrt(n) L).

    Accuracy: each line's phase is rounded about as often as in the direct
    sum ``exp(-1j * np.outer(t, E)) @ w``, and the two agree to within
    ``8 eps (max|E| t_max + L) sum|w_j|``.  Raises ``ValueError`` unless
    ``0 < dt <= t_max`` with ``t_max / dt`` finite and at most
    ``_MAX_SAMPLES`` samples.
    """
    n = _sample_count(t_max, dt)
    times = np.arange(n) * dt
    centre = _centre(sym, anti)
    c0 = np.empty(n, dtype=complex)
    cn = np.empty(n, dtype=complex)
    for start, c0_part, cn_part in _chunks(sym, anti, t_max, dt):
        stop = start + c0_part.size
        # a chunk spans two samples or more: NumPy multiplies a single
        # complex without the fused products of its array loop
        phase = _common_phase(centre, times[start:stop])
        np.multiply(c0_part, phase, out=c0[start:stop])
        np.multiply(cn_part, phase, out=cn[start:stop])
    # frozen, owned buffers: the series keep them without a copy
    for owned in (times, c0, cn):
        owned.flags.writeable = False
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
