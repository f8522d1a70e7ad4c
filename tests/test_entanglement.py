"""Joint amplitude histograms and N00N scoring."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavity_rpm import dynamics, entanglement
from cavity_rpm.core import ModelParams, edge_lines
from cavity_rpm.dynamics import evolve
from cavity_rpm.effective import (
    build_sector_hamiltonian,
    diagonalize,
    parity_chain_spectra,
    spectra_from_eigen,
)
from cavity_rpm.entanglement import (
    JointHistogram,
    default_sampling_window,
    noon_score,
    noon_statistics,
)
from cavity_rpm.harmonic import harmonic_amplitudes, harmonic_line_spectra


def reference_histogram(return_amp, transition_amp, bins):
    """np.histogram2d of the moduli over [0, 1]^2, a modulus above 1 taken
    as 1, normalized to mass one."""
    counts, _, _ = np.histogram2d(np.minimum(np.abs(return_amp), 1.0),
                                  np.minimum(np.abs(transition_amp), 1.0), bins=bins,
                                  range=[[0.0, 1.0], [0.0, 1.0]])
    return counts / np.size(return_amp)


def streamed(monkeypatch, return_amp, transition_amp, chunks=1, dt=0.1, **kwargs):
    """noon_statistics of the given amplitudes, fed as ``chunks`` consecutive
    parts of a fake synthesis stream on the grid ``arange(n) * dt``."""
    return_amp = np.asarray(return_amp, dtype=complex)
    transition_amp = np.asarray(transition_amp, dtype=complex)

    def stream(sym, anti, t_max, step):
        for part in np.array_split(np.arange(return_amp.size), chunks):
            yield int(part[0]), return_amp[part], transition_amp[part]

    monkeypatch.setattr(entanglement, "_chunks", stream)
    return noon_statistics(None, None, (return_amp.size - 1) * dt, dt, **kwargs)


def test_histogram_of_constant_series_fills_one_bin(monkeypatch):
    hist, feasibility, means = streamed(monkeypatch, np.ones(100), np.zeros(100), chunks=3,
                                        bins=10)
    assert hist.bins[9, 0] == 1.0
    assert float(hist.bins.sum()) == 1.0
    assert feasibility.n_samples == 100
    assert hist.bin_width == 0.1
    assert means == (1.0, 0.0)


def test_histogram_validation(monkeypatch):
    """Too few bins are refused before any synthesis."""

    def stream(*args):
        raise AssertionError("synthesis started")

    monkeypatch.setattr(entanglement, "_chunks", stream)
    with pytest.raises(ValueError, match="need at least 2 bins, got 1"):
        noon_statistics(None, None, 1.0, 0.1, bins=1)


def test_joint_histogram_invariants():
    good = np.full((4, 4), 1.0 / 16.0)
    JointHistogram(bins=good)
    with pytest.raises(ValueError):
        JointHistogram(bins=good * 2.0)
    with pytest.raises(ValueError):
        JointHistogram(bins=np.full((4, 3), 1.0 / 12.0))
    bad = good.copy()
    bad[0, 0] = -good[0, 0]
    bad[1, 1] += 2 * good[0, 0]
    with pytest.raises(ValueError):
        JointHistogram(bins=bad)


@pytest.mark.parametrize("make, message", [
    (lambda: JointHistogram(bins=np.array([[math.nan, 0.25], [0.25, 0.5]])), "negative"),
    (lambda: noon_score(math.nan, 0.0), "exceed 1"),
    (lambda: noon_score([0.5, 0.5], [0.1, complex(math.nan, 0.0)]), "exceed 1"),
], ids=["histogram-bin", "score-return", "score-transition"])
def test_invariants_reject_nan(make, message):
    """Every invariant holds positively, so a NaN fails it instead of passing."""
    with pytest.raises(ValueError, match=message):
        make()


def test_bin_centers():
    hist = JointHistogram(bins=np.full((4, 4), 1.0 / 16.0))
    np.testing.assert_allclose(hist.bin_centers(), [0.125, 0.375, 0.625, 0.875])


def test_harmonic_samples_lie_on_the_unit_circle_of_probability():
    # for N = 2 the moduli satisfy |c0| + |cN| = 1, a straight anti-diagonal
    params = ModelParams(n_photons=2, omega0=1.0, j_tun=0.8)
    bins = 20
    hist, _, _ = noon_statistics(*harmonic_line_spectra(params), 200.0, 0.01, bins=bins)
    mass_near_antidiagonal = sum(
        hist.bins[i, j]
        for i in range(bins)
        for j in range(bins)
        if abs(i + j - (bins - 1)) <= 1
    )
    assert mass_near_antidiagonal == pytest.approx(1.0, abs=1e-12)


def test_harmonic_never_holds_both_edges_at_once():
    """min(|c0|, |cN|) <= 2^(-N/2), so for N = 6 no sample has both
    probabilities above 0.05 (moduli above 0.2236)."""
    params = ModelParams(n_photons=6, omega0=1.0, j_tun=0.8)
    ret, tra = harmonic_amplitudes(params, np.arange(0.0, 500.0, 0.005))
    both = np.minimum(np.abs(ret.values), np.abs(tra.values))
    assert float(np.max(both)) <= 0.125 + 1e-12
    assert float(np.max(both)) < math.sqrt(0.05)


def test_noon_score_values():
    assert noon_score(1.0, 0.0) == pytest.approx(0.5)
    assert noon_score(0.0, 0.0) == 0.0
    r = 1.0 / math.sqrt(2.0)
    assert noon_score(r, r * 1j) == pytest.approx(1.0)
    assert noon_score(0.3, 0.4) == pytest.approx(0.49 / 2.0)


def test_noon_score_monotonic_in_each_modulus():
    assert noon_score(0.5, 0.3) < noon_score(0.6, 0.3) < noon_score(0.6, 0.4)


def test_noon_score_rejects_unnormalized_input():
    with pytest.raises(ValueError):
        noon_score(1.2, 0.0)
    with pytest.raises(ValueError):
        noon_score(0.0, -1.5j * 1.1)


def test_default_sampling_window():
    params = ModelParams(n_photons=6, omega0=1.0, j_tun=0.8)
    energies, _, _ = edge_lines(*harmonic_line_spectra(params))
    t_max, dt = default_sampling_window(params, energies)
    assert t_max == pytest.approx(1000.0 * math.pi / 0.8)
    span = float(energies[-1] - energies[0])
    assert dt == pytest.approx(2.0 * math.pi / (20.0 * span))
    t_max0, dt0 = default_sampling_window(
        ModelParams(n_photons=4, omega0=1.0, j_tun=0.0),
        edge_lines(*harmonic_line_spectra(ModelParams(n_photons=4, omega0=1.0, j_tun=0.0)))[0],
    )
    assert t_max0 == 50.0
    assert dt0 == 0.01


def scan(params, t_max, dt):
    """Scores of the sector's parity-chain dynamics over [0, t_max]."""
    halves = parity_chain_spectra(build_sector_hamiltonian(params))
    return noon_statistics(*halves, t_max, dt, threshold=0.55)[1]


def test_feasibility_of_balanced_beamsplitter_dynamics():
    # N = 2 harmonic scores are constant 1/2: the argmax is degenerate,
    # only the value is pinned
    feas = scan(ModelParams(n_photons=2, omega0=1.0, g=0.0, j_tun=0.8), 50.0, 0.01)
    assert feas.max_score == pytest.approx(0.5, abs=1e-9)
    assert feas.fraction_above == 0.0
    assert feas.n_samples == 5001


def test_feasibility_anharmonic_beats_harmonic():
    anharmonic, harmonic = (
        scan(ModelParams(n_photons=6, omega0=1.0, g=g, j_tun=0.8), 200.0, 0.01)
        for g in (1.2, 0.0))
    assert anharmonic.max_score > 0.8
    assert anharmonic.max_score <= 1.0 + 1e-9
    assert 0.0 < anharmonic.fraction_above < 1.0
    assert harmonic.fraction_above == 0.0
    assert anharmonic.max_score > harmonic.max_score
    assert anharmonic.argmax_time > 0.0
    assert anharmonic.threshold == 0.55


def test_marginal_second_moment_matches_weights():
    """Long-time mean of |c0|^2 equals the summed squared weights."""
    params = ModelParams(n_photons=8, omega0=1.0, g=1.2, j_tun=0.8)
    h = build_sector_hamiltonian(params)
    _, w00, _ = spectra_from_eigen(diagonalize(h))
    ret, _ = evolve(*parity_chain_spectra(h), 10000.0 / params.j_tun, 0.05)
    mean_sq = float(np.mean(np.abs(ret.values) ** 2))
    assert mean_sq == pytest.approx(float(np.sum(w00**2)), abs=5e-3)


def test_noon_histogram_from_half_sums_equals_direct_syntheses():
    """The figure-scale noon histogram (N=100, t_max 150) built from the half
    sums under one common phase equals, bin for bin, the one from one
    synthesis per half, each with its own common phase."""
    params = ModelParams(n_photons=100, omega0=1.0, g=1.2, j_tun=0.8)
    halves = parity_chain_spectra(build_sector_hamiltonian(params))
    _, dt = default_sampling_window(params, edge_lines(*halves)[0])
    sym, anti = (evolve(half, half, 150.0, dt)[0].values for half in halves)
    hist, _, _ = noon_statistics(*halves, 150.0, dt, bins=50)
    np.testing.assert_array_equal(
        hist.bins, reference_histogram((sym + anti) / 2, (sym - anti) / 2, 50))


def adversarial_moduli(bins, rng):
    """Every inner edge of ``bins`` bins over [0, 1] and its two neighbours on
    each side, 0, 1, the double below 1, 1 + 1e-9 (the bound's tolerance) and
    2000 random moduli."""
    inner = np.linspace(0.0, 1.0, bins + 1)[1:-1]
    below = np.nextafter(inner, 0.0)
    above = np.nextafter(inner, 2.0)
    return np.concatenate([inner, below, np.nextafter(below, 0.0), above,
                           np.nextafter(above, 2.0),
                           [0.0, 1.0, np.nextafter(1.0, 0.0), 1.0 + 1e-9],
                           rng.random(2000)])


def test_accumulated_histogram_bins_as_histogram2d(monkeypatch):
    """Chunk by chunk, the counts are np.histogram2d's over [0, 1]^2, moduli on
    every bin edge included; a modulus of 1, or a few ulp above it, lands in
    the last bin.  So do moduli two doubles either side of every inner edge,
    along either axis, for 2, 3, 7, 50 and 997 bins."""
    bins = 7
    rng = np.random.default_rng(5)
    edges = np.linspace(0.0, 1.0, bins + 1)
    c0 = np.concatenate([edges, [1.0 + 1e-12, 1.0], rng.random(500)])
    cn = np.concatenate([edges[::-1], [0.0, 1.0 + 4e-16], rng.random(500)])
    # complex amplitudes whose moduli are c0 and cn exactly
    hist, feasibility, _ = streamed(monkeypatch, c0 + 0j, -1j * cn, chunks=9, bins=bins)
    assert np.array_equal(hist.bins, reference_histogram(c0, cn, bins))
    assert feasibility.n_samples == c0.size
    for bins in (2, 3, 7, 50, 997):
        c0 = adversarial_moduli(bins, rng)
        cn = rng.permutation(c0)
        hist, feasibility, _ = streamed(monkeypatch, c0 + 0j, -1j * cn, chunks=3, bins=bins)
        assert np.array_equal(hist.bins, reference_histogram(c0, cn, bins)), bins
        assert feasibility.n_samples == c0.size


@settings(max_examples=300, deadline=None)
@given(bins=st.integers(2, 4096),
       moduli=st.lists(st.floats(0.0, 1.0 + 1e-9), min_size=1, max_size=20),
       edge=st.floats(0.0, 1.0), step=st.integers(-2, 2))
def test_bin_index_equals_searchsorted(bins, moduli, edge, step):
    """The arithmetic bin index equals np.searchsorted of the inner edges for
    any modulus in [0, 1 + 1e-9], and for an edge moved by up to two doubles
    either way."""
    edges = np.linspace(0.0, 1.0, bins + 1)
    near = edges[round(edge * bins)]
    for _ in range(abs(step)):
        near = np.nextafter(near, step)
    x = np.array([*moduli, min(max(near, 0.0), 1.0 + 1e-9)])
    np.testing.assert_array_equal(entanglement._bin_index(x, entanglement._bin_edges(bins)),
                                  np.searchsorted(edges[1:-1], x, side="right"))


def test_nan_modulus_is_refused_before_binning(monkeypatch):
    """A NaN modulus fails the bound check of the scores, which run before
    the binning, so it never reaches the integer bin index."""
    with pytest.raises(ValueError, match="cannot exceed 1"):
        streamed(monkeypatch, [0.5, math.nan, 0.1], [0.1, 0.2, 0.3], bins=5)
    with pytest.raises(ValueError, match="cannot exceed 1"):
        streamed(monkeypatch, [0.5, 0.2, 0.1], [0.1, complex(0.0, math.nan), 0.3], bins=5)


def test_scores_tied_across_chunks_keep_the_earliest_sample(monkeypatch):
    """The best score first reached at sample 2 of the first chunk, and tied
    at the start of the next two, keeps sample 2, as np.argmax does; a score
    equal to the threshold is not above it."""
    c0 = np.array([0.5, 0.2, 0.6, 0.1, 0.6, 0.6, 0.6, 0.6, 0.1, 0.6, 0.6, 0.6, 0.6, 0.1, 0.6])
    cn = np.full(15, 0.3j)
    scores = noon_score(c0, cn)
    threshold = float(scores[0])
    _, feasibility, _ = streamed(monkeypatch, c0, cn, chunks=3, dt=0.25, threshold=threshold)
    assert int(np.argmax(scores)) == 2
    assert feasibility.max_score == float(scores.max())
    assert feasibility.argmax_time == 0.5
    assert feasibility.n_samples == 15
    assert feasibility.fraction_above == np.count_nonzero(scores > threshold) / 15 == 10 / 15


def n12_halves(source):
    """The parity halves of the N=12 pair, anharmonic chains or harmonic."""
    params = ModelParams(n_photons=12, omega0=1.0, g=1.2 if source == "chains" else 0.0,
                         j_tun=0.8)
    if source == "chains":
        return parity_chain_spectra(build_sector_hamiltonian(params))
    return harmonic_line_spectra(params)


def chunk_moduli(halves, t_max, dt):
    """``|c0|`` and ``|cN|`` of the synthesis stream that noon_statistics reads,
    concatenated."""
    parts = list(dynamics._chunks(*halves, t_max, dt))
    return (np.concatenate([np.abs(part[1]) for part in parts]),
            np.concatenate([np.abs(part[2]) for part in parts]))


@pytest.mark.parametrize("chunk", [1, 2, 3])
@pytest.mark.parametrize("source", ["chains", "harmonic"])
def test_streamed_statistics_equal_those_of_the_series(monkeypatch, source, chunk):
    """Chunk by chunk, noon_statistics gives the histogram, the earliest time
    of the best score and the count above the threshold of evolve's full
    series bit for bit, for chunks of 1, 2 and 3 blocks; the 6001 samples form
    76 whole blocks of 78 and a partial one, so the last chunk is never a full
    multiple of the chunk.  The best score agrees to 8 eps relative: the
    moduli carry no common phase, and evolve's series were synthesized in
    products of another row count (see test_noon_moduli_equal_those_of_evolve).
    The means, summed chunk by chunk, agree to rounding."""
    halves = n12_halves(source)
    t_max, dt = 300.0, 0.05
    ret, tra = evolve(*halves, t_max, dt)
    scores = noon_score(ret.values, tra.values)
    monkeypatch.setattr(dynamics, "_CHUNK_BLOCKS", chunk)
    hist, feasibility, means = noon_statistics(*halves, t_max, dt, bins=20, threshold=0.55)
    assert feasibility.n_samples == 6001
    np.testing.assert_array_equal(hist.bins, reference_histogram(ret.values, tra.values, 20))
    best = float(np.max(scores))
    assert abs(feasibility.max_score - best) <= 8 * np.finfo(float).eps * best
    assert feasibility.argmax_time == ret.times[np.argmax(scores)]
    assert feasibility.fraction_above == np.count_nonzero(scores > 0.55) / 6001
    assert feasibility.threshold == 0.55
    np.testing.assert_allclose(
        means, [np.mean(np.abs(ret.values) ** 2), np.mean(np.abs(tra.values) ** 2)],
        rtol=1e-12)


@pytest.mark.parametrize("chunk", [1, 2, 3])
@pytest.mark.parametrize("source", ["chains", "harmonic"])
def test_statistics_equal_those_of_the_chunk_moduli(monkeypatch, source, chunk):
    """For chunks of 1, 2 and 3 blocks, noon_statistics gives the histogram,
    the best score, its earliest time and the count above the threshold of
    the concatenated moduli of the synthesis stream, bit for bit; the means,
    summed chunk by chunk, agree to rounding."""
    halves = n12_halves(source)
    t_max, dt = 300.0, 0.05
    monkeypatch.setattr(dynamics, "_CHUNK_BLOCKS", chunk)
    c0, cn = chunk_moduli(halves, t_max, dt)
    scores = noon_score(c0, cn)
    hist, feasibility, means = noon_statistics(*halves, t_max, dt, bins=20, threshold=0.55)
    assert feasibility.n_samples == c0.size == 6001
    np.testing.assert_array_equal(hist.bins, reference_histogram(c0, cn, 20))
    assert feasibility.max_score == float(np.max(scores))
    assert feasibility.argmax_time == np.argmax(scores) * dt
    assert feasibility.fraction_above == np.count_nonzero(scores > 0.55) / 6001
    np.testing.assert_allclose(means, [np.mean(c0**2), np.mean(cn**2)], rtol=1e-12)


@pytest.mark.parametrize("source", ["chains", "harmonic"])
def test_noon_moduli_equal_those_of_evolve(source):
    """The moduli that noon_statistics bins, without the common phase, equal
    those of evolve's series to 4 eps relative: evolve's carry the rounding
    of the phase's exponential, of its two complex products and of one more
    modulus (measured: up to 2.8 eps)."""
    halves = n12_halves(source)
    ret, tra = evolve(*halves, 300.0, 0.05)
    for moduli, series in zip(chunk_moduli(halves, 300.0, 0.05), (ret, tra)):
        reference = np.abs(series.values)
        assert np.all(np.abs(moduli - reference) <= 4 * np.finfo(float).eps * reference)


def test_default_noon_statistics_stream_in_little_memory():
    """The default N=100 statistics pass, 2,000,030 samples, never holds a
    full-length series: its traced peak stays below 40 MB, where two series
    and their moduli took 194 MB."""
    params = ModelParams(n_photons=100, omega0=1.0, g=1.2, j_tun=0.8)
    halves = parity_chain_spectra(build_sector_hamiltonian(params))
    t_max, dt = default_sampling_window(params, edge_lines(*halves)[0])
    tracemalloc.start()
    try:
        _, feasibility, _ = noon_statistics(*halves, t_max, dt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert feasibility.n_samples == 2_000_030
    assert peak < 40e6
