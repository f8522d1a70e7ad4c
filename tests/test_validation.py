"""The cross-check registry: green on the real code, loud on sabotage."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from cavity_rpm import harmonic, rpm, validation
from cavity_rpm.validation import CheckResult, run_checks


def test_all_checks_pass():
    report = run_checks()
    failing = [r.name for r in report.results if not r.passed]
    assert report.passed, f"failing checks: {failing}"
    assert len(report.results) == len(validation.CHECKS)


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


def test_nan_depth_sample_is_the_first_failure(monkeypatch):
    original = rpm.rpm_walk

    def nan_walk(params, z):
        for k, a, b in original(params, z):
            yield k, a, complex(math.nan, 0.0) if k == 2 else b

    monkeypatch.setattr(rpm, "rpm_walk", nan_walk)
    result = validation.check_oracle_equivalence()
    assert result.passed is False
    assert result.data["first_failure"]["depth"] == 2


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
