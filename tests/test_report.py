import math

import numpy as np
import pytest

from aperiodix import report as report_module
from aperiodix.diffraction import contrast_spectrum, module_distance
from aperiodix.report import bloch_report, hull_averaged_gaps, report_to_dict, to_json
from aperiodix.spectral import (
    HoppingModel,
    OnsiteModel,
    build_chain,
    bulk_gaps,
    counting_function,
    eigenvalues_tridiag,
)
from aperiodix.substitution import builtin_rule, expand_word

# all five families at order 8-10 (N <= 256), on-site and hopping models
HULL_CASES = [
    ("periodic", 8, OnsiteModel(0.0, 1.0)),
    ("fibonacci", 8, OnsiteModel(0.0, 1.0)),
    ("fibonacci", 10, OnsiteModel(0.0, 1.0)),
    ("thue-morse", 8, OnsiteModel(0.0, 1.0)),
    ("period-doubling", 8, OnsiteModel(0.0, 1.0)),
    ("rudin-shapiro", 8, OnsiteModel(0.0, 1.0)),
    ("fibonacci", 10, HoppingModel(0.0, 1.0, 1.0)),
    ("thue-morse", 8, HoppingModel(0.0, 1.0, 1.0)),
]


def _spectrum_hull_ids(rule, order, model, windows=16):
    """Hull-averaged ids the spectrum way: every window's full spectrum, read
    by the counting function (levels at or below) at each gap midpoint.
    Also returns the same average taken over the levels strictly below."""
    seed = rule.alphabet[0]
    word = rule.project(expand_word(rule, seed, order))
    n = len(word)
    gaps = bulk_gaps(eigenvalues_tridiag(build_chain(word, model)))
    long_order = order
    while len(expand_word(rule, seed, long_order)) < 6 * n and long_order < order + 12:
        long_order += 1
    long_word = rule.project(expand_word(rule, seed, long_order))
    stride = max(1, (len(long_word) - n) // (windows - 1))
    solved = {}  # equal windows (periodic words) have equal spectra
    for j in range(windows):
        window = long_word[j * stride:j * stride + n]
        if window not in solved:
            solved[window] = eigenvalues_tridiag(build_chain(window, model))
    spectra = [solved[long_word[j * stride:j * stride + n]] for j in range(windows)]
    mids = [0.5 * (g.lower + g.upper) for g in gaps]
    at_or_below = [sum(counting_function(s, m) for s in spectra) / windows for m in mids]
    below = [sum(float(np.searchsorted(s.eigenvalues, m, side="left")) / s.size
                 for s in spectra) / windows for m in mids]
    return at_or_below, below


def test_gaps_in_trace_group_all_families(reports):
    for family, report in reports.items():
        assert report.gaps_in_trace_group, family


def test_diffraction_matches_trace_verdicts(reports):
    expected = {"periodic": True, "fibonacci": True, "thue-morse": False,
                "period-doubling": True, "rudin-shapiro": False}
    for family, want in expected.items():
        assert reports[family].diffraction_matches_trace == want, family


def test_bragg_in_module_all(reports):
    for family, report in reports.items():
        assert report.bragg_in_module, family


def test_report_tags(reports):
    assert reports["fibonacci"].tags == ("PP",)
    assert "SC" in reports["thue-morse"].tags
    assert reports["rudin-shapiro"].tags == ("AC",)


def test_verdicts_recomputable_from_residuals(reports):
    for report in reports.values():
        assert report.gaps_in_trace_group == all(
            g.residual <= report.tol for g in report.gap_labels)
        # Bragg residuals are distances to 2 pi times the report's trace
        # group, under bloch_report's default bounds q_max=30, n_max=10
        for check in report.bragg_checks:
            assert check.module_residual == module_distance(
                check.k, report.trace_group, q_max=30, n_max=10)
        ks = report.diffraction.k_values
        k_cell = (ks[-1] - ks[0]) / (len(ks) - 1)
        assert report.bragg_in_module == all(
            c.module_residual <= 2 * k_cell
            for c in report.bragg_checks if c.classification == "Bragg")


def test_gap_tolerance_monotone(reports):
    # verdicts are recomputable from the stored residuals, and loosening the
    # tolerance never flips gaps_in_trace_group from true to false
    for report in reports.values():
        residuals = [g.residual for g in report.gap_labels]
        verdicts = [all(r <= tol for r in residuals)
                    for tol in (1e-5, 1e-4, 5e-4, 1e-3, 1e-2, 1e-1)]
        assert verdicts == sorted(verdicts)  # monotone false -> true
        assert verdicts[-1]
    assert max(g.residual for g in reports["fibonacci"].gap_labels) <= 1e-3


def test_report_deterministic():
    a = to_json(report_to_dict(bloch_report("periodic")))
    b = to_json(report_to_dict(bloch_report("periodic")))
    assert a == b
    assert '"schema": 1' in a


def test_report_custom_model():
    report = bloch_report("periodic", model=OnsiteModel(0.0, 2.0))
    assert report.gaps_in_trace_group
    assert len(report.gap_labels) == 1
    assert report.gap_labels[0].ids_value == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("family,order,model", HULL_CASES)
def test_hull_counts_equal_window_spectra(family, order, model):
    rule = builtin_rule(family)
    at_or_below, below = _spectrum_hull_ids(rule, order, model)
    assert at_or_below
    # no window level sits on a midpoint, where "at or below" (a counting
    # function) and "strictly below" (a Sturm count) would part
    assert below == at_or_below
    ids = [g.ids_value for g in hull_averaged_gaps(rule, order, model, 10.0)]
    assert ids == at_or_below  # bit for bit


def test_report_keeps_its_base_spectrum(reports):
    report = reports["periodic"]
    rule = builtin_rule("periodic")
    word = rule.project(expand_word(rule, "a", report.spectral_order))
    base = eigenvalues_tridiag(build_chain(word, OnsiteModel(0.0, 1.0)))
    assert np.array_equal(report.spectrum.eigenvalues, base.eigenvalues)
    # and the contrast grid classify_spectrum picked the peaks from
    grid = contrast_spectrum(rule, max(report.diffraction_orders), 0.05,
                             4 * math.pi, 2048)
    assert np.array_equal(report.diffraction.k_values, grid.k_values)
    assert np.array_equal(report.diffraction.S, grid.S)


@pytest.mark.parametrize("bad", [{"tol": -1e-3}, {"tol": math.nan}, {"q_max": -1},
                                 {"n_max": -1}, {"rel_threshold": 0.0},
                                 {"rel_threshold": math.nan}])
def test_bad_bounds_are_refused_before_any_work(monkeypatch, bad):
    def no_work(*args, **kwargs):
        raise AssertionError("bloch_report worked before it checked its bounds")

    monkeypatch.setattr(report_module, "trace_image", no_work)
    monkeypatch.setattr(report_module, "_hull_gaps", no_work)
    with pytest.raises(ValueError):
        bloch_report("periodic", **bad)


def test_negative_order_is_refused_by_name():
    with pytest.raises(ValueError, match="order must be nonnegative"):
        hull_averaged_gaps(builtin_rule("fibonacci"), -1)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_documents_hold_no_nan_or_infinity(value):
    with pytest.raises(ValueError):
        to_json({"tolerance": value})
