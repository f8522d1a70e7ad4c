"""The cross-check registry: green on the real code, loud on sabotage."""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from cavity_rpm import effective, harmonic, rpm, validation
from cavity_rpm.validation import CheckResult, run_checks


def test_all_checks_pass():
    report = run_checks()
    failing = [r.name for r in report.results if not r.passed]
    assert report.passed, f"failing checks: {failing}"
    assert len(report.results) == len(validation.CHECKS)
    # every reference is recomputed: no state carries from one run to the next
    assert run_checks().as_dict() == report.as_dict()


def test_stacked_dense_references_equal_per_point_solves():
    """One stacked solve per depth gives the bytes of one solve per probe
    point of the block built from three ``np.diag`` calls."""
    zs = np.array(validation._PROBE_Z)
    for params in validation._SMALL_GRID:
        h = effective.build_sector_hamiltonian(params)
        for k in range(params.n_photons // 2 + 1):
            a, b = validation._dense_pair_elements(h, zs, k)
            lo, hi = h.n_photons // 2 - k, (h.n_photons + 1) // 2 + k
            d = h.diag[lo:hi + 1]
            e = h.offdiag[lo:hi].astype(complex)
            rhs = np.zeros(d.size, dtype=complex)
            rhs[0] = 1.0
            for i, z in enumerate(validation._PROBE_Z):
                m = np.diag(z - d.astype(complex)) - np.diag(e, 1) - np.diag(e, -1)
                x = np.linalg.solve(m, rhs)
                assert a[i].tobytes() == x[0].tobytes(), (params, k, z)
                assert b[i].tobytes() == x[-1].tobytes(), (params, k, z)


def test_ladder_operator_built_once_per_k_gives_the_per_element_floats():
    for op_kind, k in itertools.product(("annihilate", "create"), range(1, 51)):
        full = validation._ladder_operator(op_kind, k)
        for b_out, b_in, bra in itertools.product((1, -1), (1, -1), (k - 1, k + 1)):
            # the operator and both dressed vectors built afresh for one element
            dim = k + 4
            lowering = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
            op = lowering if op_kind == "annihilate" else lowering.T
            vectors = []
            for n, branch in ((bra, b_out), (k, b_in)):
                v = np.zeros(2 * dim)
                v[2 * n + 1] = branch / math.sqrt(2.0)
                v[2 * (n + 1)] = 1.0 / math.sqrt(2.0)
                vectors.append(v)
            expected = float(vectors[0] @ np.kron(op, np.eye(2)) @ vectors[1])
            got = validation._brute_dressed_element(full, k, b_out, b_in, bra)
            assert np.float64(got).tobytes() == np.float64(expected).tobytes()


def test_report_serialization():
    report = run_checks(["completeness", "rabi_conservation"])
    payload = report.as_dict()
    assert payload["passed"] is True
    assert [c["name"] for c in payload["checks"]] == ["completeness", "rabi_conservation"]
    assert all(set(c) == {"name", "passed", "detail", "data"} for c in payload["checks"])


def test_unknown_check_name_rejected():
    with pytest.raises(ValueError, match="unknown check"):
        run_checks(["completeness", "nonsense"])


def test_oracle_check_localizes_wrong_coupling(monkeypatch):
    """An off-by-one in the pair coupling must be caught at the depth where
    it first enters the recursion, not as a diffuse end-to-end mismatch."""
    def wrong_coupling(n_photons, k, j_tun):
        half = n_photons / 2.0
        return j_tun**2 * (half + k) * (half - k)

    monkeypatch.setattr(rpm, "pair_coupling_sq", wrong_coupling)
    result = validation.check_oracle_equivalence()
    assert not result.passed
    failure = result.data["first_failure"]
    assert failure is not None
    assert failure["depth"] == 1
    assert "depth" in result.detail


def test_sabotaged_interaction_breaks_sign_symmetry(monkeypatch):
    original = rpm._pair_interaction

    def skewed(params, k):
        return original(params, k) + 0.001 * k

    monkeypatch.setattr(rpm, "_pair_interaction", skewed)
    result = validation.check_sign_symmetry()
    assert not result.passed


def test_nan_closed_form_fails_its_check(monkeypatch):
    """A NaN figure fails its check: the builtin max would keep the running
    worst value and pass it.  AmplitudeSeries rejects NaN, so the sabotaged
    route hands over a bare stand-in."""
    original = harmonic.harmonic_amplitudes

    def nan_return(params, times):
        ret, tra = original(params, times)
        return SimpleNamespace(values=np.full(ret.values.shape, math.nan)), tra

    monkeypatch.setattr(harmonic, "harmonic_amplitudes", nan_return)
    result = validation.check_harmonic_closed_forms()
    assert result.passed is False
    assert math.isnan(result.data["max_deviation"])


def test_nan_recursion_fails_the_mirror_check(monkeypatch):
    def nan_spectra(params, grid, epsilon):
        return np.full(grid.shape, math.nan), np.full(grid.shape, math.nan)

    monkeypatch.setattr(rpm, "rpm_spectra", nan_spectra)
    result = validation.check_mirror_image()
    assert result.passed is False
    assert math.isnan(result.data["max_deviation"])


@pytest.mark.parametrize("route", ["recursion", "oracle"])
def test_nan_fails_the_herglotz_check(monkeypatch, route):
    """A NaN from the recursion at one point, or a NaN line weight in the
    oracle's sum over all points at once, fails the check and is reported."""
    if route == "recursion":
        original = rpm.rpm_resolvent

        def nan_resolvent(params, z):
            a, b = original(params, z)
            a[3] = complex(math.nan, math.nan)
            return a, b

        monkeypatch.setattr(rpm, "rpm_resolvent", nan_resolvent)
    else:
        original = validation._edge_spectra

        def nan_weight(params):
            energies, w00, wn0 = original(params)
            w00[-1] = math.nan
            return energies, w00, wn0

        monkeypatch.setattr(validation, "_edge_spectra", nan_weight)
    result = validation.check_herglotz()
    assert result.passed is False
    assert math.isnan(result.data["min_imag"])


def test_nan_depth_sample_is_the_first_failure(monkeypatch):
    original = rpm.rpm_walk

    def nan_walk(params, z):
        for k, a, b in original(params, z):
            yield k, a, complex(math.nan, 0.0) if k == 2 else b

    monkeypatch.setattr(rpm, "rpm_walk", nan_walk)
    result = validation.check_oracle_equivalence()
    assert result.passed is False
    assert result.data["first_failure"]["depth"] == 2


def test_first_failure_scans_probe_points_outer_and_depths_inner(monkeypatch):
    """All probe points are walked at once, but the first failure is still
    the shallowest failing depth of the first failing point."""
    original = rpm.rpm_walk

    def nan_walk(params, z):
        for k, a, b in original(params, z):
            if k == 0:
                b[1] = math.nan
            if k == 1:
                b[0] = math.nan
            yield k, a, b

    monkeypatch.setattr(rpm, "rpm_walk", nan_walk)
    result = validation.check_oracle_equivalence()
    assert result.passed is False
    failure = result.data["first_failure"]
    assert (failure["depth"], failure["z"]) == (1, repr(validation._PROBE_Z[0]))
    assert result.data["n_compared"] == 1872


def test_dressed_element_check_reports_bra_convention():
    result = validation.check_dressed_matrix_elements()
    assert result.passed
    assert result.data["creation_bra_at_k_minus_1_max"] < 1e-12
    assert "bra" in result.detail


def test_degeneracy_check_rules_out_halved_convention():
    result = validation.check_degeneracy_j0()
    assert result.passed
    assert result.data["alternative_halved_matches"] is False


def test_check_result_shape():
    result = validation.check_completeness()
    assert isinstance(result, CheckResult)
    assert result.name == "completeness"
    assert result.data["max_deviation"] <= 1e-10


def test_small_grid_holds_even_and_odd_photon_numbers():
    """The routes are cross-checked at both parities of N."""
    assert {p.n_photons % 2 for p in validation._SMALL_GRID} == {0, 1}
