"""Named cross-checks wiring the closed forms, the recursion and the
dense eigensolver against one another.

Each check is a pure function returning a :class:`CheckResult`; the
registry keys are stable names usable from the command line.  Checks
never raise on a numerical disagreement, they report it, so one broken
identity cannot hide the status of the others.

Every reference is an independent dense computation, recomputed on every
call: nothing is cached or shared between checks or runs.  Where a
reference is needed at several points of one size, it is batched: one
stacked dense solve per parameter set and recursion depth covers all probe
points, which the recursion under test also walks at once, and one ladder
operator per photon number serves every matrix element taken with it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import effective, harmonic, jc, rpm
from .core import ModelParams, edge_lines, smoothed_density
from .dynamics import evolve

__all__ = ["CheckResult", "ValidationReport", "CHECKS", "run_checks"]

# dyadic probe points: exact under negation and under reflection through
# dyadic offsets, so symmetry checks are free of rounding slack
_PROBE_Z = (
    0.25 + 0.5j,
    -3.5 - 0.0625j,
    1.0 + 1.5j,
    7.75 - 0.25j,
    -0.125 + 0.03125j,
    12.5 - 2.0j,
)

_SMALL_GRID = [
    ModelParams(n_photons=n, omega0=w0, g=g, j_tun=j, sigma=s)
    for n, g, j, s, w0 in itertools.product(
        (2, 7, 12), (0.0, 0.5, 1.2), (0.4, 0.8), (1, -1), (0.0, 1.0)
    )
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    data: dict = field(default_factory=dict)


def _max(*figures: float) -> float:
    """The largest of ``figures``, or NaN if one is NaN: the builtin ``max``
    drops a NaN met after the first argument, and a NaN route would pass."""
    return math.nan if any(map(math.isnan, figures)) else max(figures)


def _min(*figures: float) -> float:
    """The smallest of ``figures``, or NaN if one is NaN (see :func:`_max`)."""
    return math.nan if any(map(math.isnan, figures)) else min(figures)


def _json_figures(value):
    """``value`` with each non-finite float, which a failed check may report
    and JSON cannot hold, as its text."""
    if isinstance(value, dict):
        return {k: _json_figures(v) for k, v in value.items()}
    return repr(value) if isinstance(value, float) and not math.isfinite(value) else value


@dataclass(frozen=True)
class ValidationReport:
    results: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail,
                 "data": _json_figures(r.data)}
                for r in self.results
            ],
        }


def _edge_spectra(params: ModelParams):
    h = effective.build_sector_hamiltonian(params)
    return effective.spectra_from_eigen(effective.diagonalize(h))


def check_completeness() -> CheckResult:
    """Diagonal spectral weights sum to one for every producing path."""
    worst = 0.0
    for params in _SMALL_GRID:
        for _, w00, _ in (
            _edge_spectra(params),
            edge_lines(*harmonic.harmonic_line_spectra(params)),
            edge_lines(*jc.rabi_line_spectra(params)),
        ):
            worst = _max(worst, abs(float(np.sum(w00)) - 1.0))
    passed = worst <= 1e-10
    return CheckResult(
        "completeness", passed,
        f"max |sum(w) - 1| = {worst:.3e} over {len(_SMALL_GRID)} parameter sets",
        {"max_deviation": worst},
    )


def check_herglotz() -> CheckResult:
    """Diagonal resolvent values below the real axis have Im >= 0."""
    rng = np.random.default_rng(7)
    worst = np.inf
    for params in _SMALL_GRID:
        energies, w00, _ = _edge_spectra(params)
        span = max(1.0, float(energies[-1] - energies[0]))
        re = rng.uniform(energies[0] - 1, energies[-1] + 1, 8)
        im = -rng.uniform(0.01, 0.5 * span, 8)
        zs = re + 1j * im
        a, _ = rpm.rpm_resolvent(params, zs)
        # the oracle's resolvent element sum_j w_j / (z - E_j), one row per
        # point; a minimum keeps a NaN, so a NaN route fails
        oracle = (w00 / (zs[:, None] - energies)).sum(axis=1)
        worst = _min(worst, float(a.imag.min()), float(oracle.imag.min()))
    passed = worst >= -1e-13
    return CheckResult(
        "herglotz", passed,
        f"min Im over sampled lower-half-plane points = {worst:.3e}",
        {"min_imag": worst},
    )


def _dense_pair_elements(h: effective.SectorHamiltonian, zs: np.ndarray, k: int):
    """``(a, b)`` at depth ``k`` for every point of ``zs`` by dense solves.

    The isolated central block spanning pairs 0..k has the same size at
    every point, so all points are one stacked solve; its corners give
    ``(a_k, b_k)``.
    """
    lo, hi = h.n_photons // 2 - k, (h.n_photons + 1) // 2 + k
    d = h.diag[lo:hi + 1]
    e = h.offdiag[lo:hi]
    n = d.size
    m = np.zeros((zs.size, n, n), dtype=complex)
    idx = np.arange(n)
    m[:, idx, idx] = zs[:, None] - d
    m[:, idx[:-1], idx[1:]] = -e
    m[:, idx[1:], idx[:-1]] = -e
    rhs = np.zeros((zs.size, n, 1), dtype=complex)
    rhs[:, 0] = 1.0
    x = np.linalg.solve(m, rhs)
    return x[:, 0, 0], x[:, -1, 0]


def check_oracle_equivalence() -> CheckResult:
    """Recursion states agree with dense central-block inverses at every depth.

    On disagreement the report localizes the first failing depth, which
    pins indexing mistakes in the pair couplings to the step introducing
    them.
    """
    tol = 1e-9
    worst = 0.0
    first_fail = None
    n_compared = 0
    zs = np.array(_PROBE_Z)
    for params in _SMALL_GRID:
        h = effective.build_sector_hamiltonian(params)
        # one walk over all probe points; errs[k, i] at depth k and point i
        errs = []
        for k, a, b in rpm.rpm_walk(params, zs):
            a_ref, b_ref = _dense_pair_elements(h, zs, k)
            rel_a = np.abs(a - a_ref) / np.maximum(np.abs(a_ref), 1e-280)
            rel_b = np.abs(b - b_ref) / np.maximum(np.abs(b_ref), 1e-280)
            # np.maximum keeps a NaN, so a NaN route fails
            errs.append(np.maximum(rel_a, rel_b))
        errs = np.array(errs)
        worst = _max(worst, float(np.max(errs)))
        n_compared += errs.size
        # scanned probe point outer, depth inner
        failing = np.flatnonzero(~(errs.T <= tol))
        if failing.size and first_fail is None:
            i, k = divmod(int(failing[0]), errs.shape[0])
            first_fail = {
                "depth": k,
                "n_photons": params.n_photons,
                "g": params.g,
                "j_tun": params.j_tun,
                "sigma": params.sigma,
                "omega0": params.omega0,
                "z": repr(_PROBE_Z[i]),
                "relative_error": float(errs[k, i]),
            }
    if first_fail is None:
        detail = f"max relative deviation {worst:.3e} over {n_compared} depth samples"
    else:
        detail = (
            f"first failing depth k={first_fail['depth']} "
            f"(N={first_fail['n_photons']}, rel err {first_fail['relative_error']:.3e})"
        )
    return CheckResult(
        "oracle_equivalence", first_fail is None, detail,
        {"max_relative_error": worst, "first_failure": first_fail,
         "n_compared": n_compared, "tolerance": tol},
    )


def check_sign_symmetry() -> CheckResult:
    """Coupling-sign inversion negates the resolvent coefficients:
    a(2 omega0 N - z, -g) = -a(z, g) and b(2 omega0 N - z, -g) = -(-1)^N b(z, g).

    The gauge (-1)^k on the sector basis |N-k, k> maps H(-g) - omega0 N to
    -(H(g) - omega0 N), and multiplies |0,N> by (-1)^N."""
    zs = np.array(_PROBE_Z)
    worst = 0.0
    for params in _SMALL_GRID:
        a1, b1 = rpm.rpm_resolvent(params, zs)
        flipped = replace(params, g=-params.g)
        a2, b2 = rpm.rpm_resolvent(flipped, 2.0 * (params.omega0 * params.n_photons) - zs)
        b1 *= (-1) ** params.n_photons
        worst = _max(worst, float(np.max(np.abs(a2 + a1))), float(np.max(np.abs(b2 + b1))))
    passed = worst <= 1e-12
    return CheckResult(
        "sign_symmetry", passed,
        f"max deviation {worst:.3e} (tolerance 1e-12)",
        {"max_deviation": worst},
    )


def check_mirror_image() -> CheckResult:
    """Densities of opposite-sign coupling mirror through the harmonic offset."""
    worst = 0.0
    eps = 0.01
    for n, w0 in ((8, 0.0), (20, 0.0), (8, 1.0)):
        base = ModelParams(n_photons=n, omega0=w0, g=1.2, j_tun=0.8, sigma=1)
        flip = ModelParams(n_photons=n, omega0=w0, g=1.2, j_tun=0.8, sigma=-1)
        # dyadic grid keeps the reflection 2 omega0 N - E exact
        grid = np.arange(-40 * 32, 40 * 32 + 1) / 32.0 + w0 * n
        rho_p, rhon_p = rpm.rpm_spectra(base, grid, eps)
        rho_m, rhon_m = rpm.rpm_spectra(flip, 2.0 * (w0 * n) - grid, eps)
        worst = _max(worst, float(np.max(np.abs(rho_p - rho_m))))
        worst = _max(worst, float(np.max(np.abs(rhon_p - rhon_m))))
    passed = worst <= 1e-10
    return CheckResult(
        "mirror_image", passed,
        f"max pointwise mirror deviation {worst:.3e}",
        {"max_deviation": worst},
    )


def check_harmonic_closed_forms() -> CheckResult:
    """At g = 0 the eigensolver, the recursion and the closed forms coincide."""
    worst = 0.0
    for n in (2, 7, 12, 20):
        params = ModelParams(n_photons=n, omega0=1.0, g=0.0, j_tun=0.8, sigma=1)
        halves = harmonic.harmonic_line_spectra(params)
        lines = edge_lines(*halves)
        for closed, oracle in zip(lines, _edge_spectra(params)):
            worst = _max(worst, float(np.max(np.abs(closed - oracle))))
        ret, tra = evolve(*halves, 25.0, 0.025)
        ret_c, tra_c = harmonic.harmonic_amplitudes(params, ret.times)
        worst = _max(worst, float(np.max(np.abs(ret_c.values - ret.values))))
        worst = _max(worst, float(np.max(np.abs(tra_c.values - tra.values))))
        grid = np.linspace(lines[0][0] - 1, lines[0][-1] + 1, 501)
        rho_r, rhon_r = rpm.rpm_spectra(params, grid, 0.05)
        rho_l, rhon_l = smoothed_density(*halves, grid, 0.05)
        worst = _max(worst, float(np.max(np.abs(rho_r - rho_l))))
        worst = _max(worst, float(np.max(np.abs(rhon_r - rhon_l))))
    passed = worst <= 1e-10
    return CheckResult(
        "harmonic_closed_forms", passed,
        f"max deviation between closed forms and numeric paths {worst:.3e}",
        {"max_deviation": worst},
    )


def check_rabi_conservation() -> CheckResult:
    """Two-state Rabi moduli satisfy |return|^2 + |transition|^2 = 1."""
    times = np.linspace(0.0, 10.0, 2001)
    worst = 0.0
    for n in (1, 4, 9):
        for g in (0.3, 1.2):
            params = ModelParams(n_photons=n, omega0=1.0, g=g)
            ret, tra = jc.rabi_amplitudes(params, times)
            total = np.abs(ret.values) ** 2 + np.abs(tra.values) ** 2
            worst = _max(worst, float(np.max(np.abs(total - 1.0))))
    passed = worst <= 1e-12
    return CheckResult(
        "rabi_conservation", passed,
        f"max |probability sum - 1| = {worst:.3e}",
        {"max_deviation": worst},
    )


def _ladder_operator(op_kind: str, k: int) -> np.ndarray:
    """Photon lowering or raising operator on the atom-cavity product space,
    truncated a few photons above ``k``."""
    dim = k + 4
    lowering = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    op = lowering if op_kind == "annihilate" else lowering.T
    return np.kron(op, np.eye(2))


def _brute_dressed_element(full: np.ndarray, k: int, branch_out: int, branch_in: int,
                           bra_photon: int) -> float:
    """``<bra_photon, branch_out| full |k, branch_in>`` between dressed states
    built as vectors, with ``full`` from :func:`_ladder_operator`."""
    def dressed(n: int, branch: int) -> np.ndarray:
        v = np.zeros(full.shape[0])
        v[2 * n + 1] = branch / math.sqrt(2.0)
        v[2 * (n + 1)] = 1.0 / math.sqrt(2.0)
        return v

    return float(dressed(bra_photon, branch_out) @ full @ dressed(k, branch_in))


def check_dressed_matrix_elements() -> CheckResult:
    """Tabulated dressed-basis ladder elements match brute-force inner products.

    The annihilation bra sits at photon index k-1.  The creation table is
    only reproduced with the bra at photon index k+1; taking it at k-1 as
    the table's labels literally read gives exactly zero for every entry
    (level mismatch).  Both facts are recorded here.
    """
    worst = 0.0
    printed_bra_max = 0.0
    for k in range(1, 51):
        lowering, raising = _ladder_operator("annihilate", k), _ladder_operator("create", k)
        for b_out in (1, -1):
            for b_in in (1, -1):
                val_a = jc.dressed_photon_matrix_element("annihilate", k, b_out, b_in)
                ref_a = _brute_dressed_element(lowering, k, b_out, b_in, k - 1)
                worst = _max(worst, abs(val_a - ref_a))
                val_c = jc.dressed_photon_matrix_element("create", k, b_out, b_in)
                ref_c = _brute_dressed_element(raising, k, b_out, b_in, k + 1)
                worst = _max(worst, abs(val_c - ref_c))
                printed_bra_max = _max(
                    printed_bra_max,
                    abs(_brute_dressed_element(raising, k, b_out, b_in, k - 1)),
                )
    passed = worst <= 1e-12
    return CheckResult(
        "dressed_matrix_elements", passed,
        f"max |table - brute force| = {worst:.3e}; creation elements match with "
        f"the bra one photon above the ket (bra at k-1 evaluates to "
        f"{printed_bra_max:.1e} for all entries)",
        {"max_deviation": worst, "creation_bra_at_k_minus_1_max": printed_bra_max},
    )


def check_parity() -> CheckResult:
    """Eigenvectors split into mirror-symmetric and antisymmetric classes,
    so the cross weights equal the diagonal weights up to sign, line by line;
    and the line spectra of the two parity chains match those of the dense
    eigenvectors, on the small grid plus J = 0."""
    worst_vec = 0.0
    worst_line = 0.0
    worst_chain = 0.0
    extra = ModelParams(n_photons=6, omega0=1.0, g=1.2, j_tun=0.0, sigma=1)
    for params in _SMALL_GRID + [extra]:
        h = effective.build_sector_hamiltonian(params)
        decomp = effective.diagonalize(h)
        oracle = effective.spectra_from_eigen(decomp)
        chains = edge_lines(*effective.parity_chain_spectra(h))
        if chains[0].size != oracle[0].size:
            worst_chain = math.inf
        else:
            worst_chain = _max(worst_chain, *(
                float(np.max(np.abs(c - o))) for c, o in zip(chains, oracle)))
        if params.j_tun == 0:
            # degenerate mirror pairs: the vectors need not have a parity
            continue
        v = decomp.vectors
        sym = np.max(np.abs(v - v[::-1, :]), axis=0)
        asym = np.max(np.abs(v + v[::-1, :]), axis=0)
        worst_vec = _max(worst_vec, float(np.max(np.minimum(sym, asym))))
        _, w00, wn0 = oracle
        diff = np.minimum(np.abs(wn0 - w00), np.abs(wn0 + w00))
        worst_line = _max(worst_line, float(np.max(diff)))
    passed = worst_vec <= 1e-10 and worst_line <= 1e-10 and worst_chain <= 1e-10
    return CheckResult(
        "parity", passed,
        f"max mirror defect {worst_vec:.3e} in vectors, {worst_line:.3e} in weights; "
        f"parity chains against eigenvectors {worst_chain:.3e}",
        {"max_vector_defect": worst_vec, "max_weight_defect": worst_line,
         "max_chain_defect": worst_chain},
    )


def check_degeneracy_j0() -> CheckResult:
    """At J = 0 the spectrum is the interaction ladder with exact double
    degeneracy away from the balanced state.

    Records the predictions of the implemented diagonal convention
    (2 sigma g) alongside the halved alternative (sigma g) for comparison.
    """
    worst = 0.0
    degeneracy_ok = True
    alternative_matches = True
    for n in (10, 100):
        params = ModelParams(n_photons=n, omega0=1.0, g=1.2, j_tun=0.0, sigma=1)
        decomp = effective.diagonalize(effective.build_sector_hamiltonian(params))
        k = np.arange(n + 1)
        ladder = params.omega0 * n + 2.0 * params.sigma * params.g * (
            np.sqrt(n - k) + np.sqrt(k)
        )
        halved = params.omega0 * n + params.sigma * params.g * (
            np.sqrt(n - k) + np.sqrt(k)
        )
        worst = _max(worst, float(np.max(np.abs(np.sort(ladder) - decomp.energies))))
        if not np.allclose(np.sort(halved), decomp.energies, rtol=0, atol=1e-9):
            alternative_matches = False
        # unbalanced levels (k, N-k) come in exactly degenerate pairs
        _, counts = np.unique(decomp.energies, return_counts=True)
        if int(np.sum(counts == 2)) != n // 2 or int(np.sum(counts == 1)) != n % 2 + 1:
            degeneracy_ok = False
    passed = bool(worst <= 1e-9 and degeneracy_ok)
    return CheckResult(
        "degeneracy_j0", passed,
        f"max |eigenvalue - ladder| = {worst:.3e}; halved-coupling alternative "
        f"matches: {alternative_matches}",
        {"max_deviation": worst, "alternative_halved_matches": alternative_matches},
    )


CHECKS = {
    "completeness": check_completeness,
    "herglotz": check_herglotz,
    "oracle_equivalence": check_oracle_equivalence,
    "sign_symmetry": check_sign_symmetry,
    "mirror_image": check_mirror_image,
    "harmonic_closed_forms": check_harmonic_closed_forms,
    "rabi_conservation": check_rabi_conservation,
    "dressed_matrix_elements": check_dressed_matrix_elements,
    "parity": check_parity,
    "degeneracy_j0": check_degeneracy_j0,
}


def run_checks(names=None) -> ValidationReport:
    """Run the selected named checks (all of them by default)."""
    if names is None:
        names = list(CHECKS)
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise ValueError(f"unknown check names: {', '.join(sorted(unknown))}")
    results = tuple(CHECKS[name]() for name in names)
    return ValidationReport(results=results)
