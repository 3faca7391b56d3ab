import json
import math

import numpy as np
import pytest

from aperiodix import cli, spectral
from aperiodix import report as report_module
from aperiodix.diffraction import contrast_spectrum, module_distance
from aperiodix.report import bloch_report, hull_averaged_gaps, report_to_dict, to_json
from aperiodix.spectral import HoppingModel, OnsiteModel, _sturm_count, build_chain
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


WINDOW_PERIODS = 16  # periods of the approximant's word in a window chain


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
    # A window of WINDOW_PERIODS periods of the approximant is a free chain
    # cut from its periodic hull.  On a gap of the approximant with count j
    # the periodic chain of K periods has exactly K j levels below, and
    # cutting its one closing bond (a rank-two change of signature (1, 1))
    # moves that count by at most one, so the window's Sturm count at each
    # gap's midpoint is K j + {-1, 0, 1}.  The threshold is low enough that
    # every case has gaps.
    rule = builtin_rule(family)
    word = rule.project(expand_word(rule, rule.alphabet[0], order))
    n = len(word)
    gaps = hull_averaged_gaps(rule, order, model, 2.0)
    assert gaps
    window = build_chain(word * WINDOW_PERIODS, model)
    for gap in gaps:
        j = gap.ids_value * n
        assert j == round(j) and 0 < j < n
        count = _sturm_count(window.onsite, window.hopping**2,
                             np.array([gap.lower + gap.upper]))[0]
        assert abs(count - WINDOW_PERIODS * round(j)) <= 1, (gap, count)


def test_report_keeps_its_contrast_grid(reports):
    # the contrast grid classify_spectrum picked the peaks from
    report = reports["periodic"]
    grid = contrast_spectrum(builtin_rule("periodic"), max(report.diffraction_orders),
                             0.05, 4 * math.pi, 2048)
    assert np.array_equal(report.diffraction.k_values, grid.k_values)
    assert np.array_equal(report.diffraction.S, grid.S)


def test_rule_backed_gaps_solve_no_spectrum(monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("a rule-backed gap path solved a spectrum")

    for module in (spectral, report_module, cli):
        monkeypatch.setattr(module, "eigenvalues_tridiag", no_solve, raising=False)
    report = bloch_report("fibonacci")
    assert len(report.gap_labels) > 5
    # the N(e) curve: at most N certified points of a nondecreasing count
    energies, ids = report.counting
    assert 0 < len(energies) <= 987
    assert np.all(np.diff(energies) > 0) and np.all(np.diff(ids) >= 0)
    assert hull_averaged_gaps(builtin_rule("thue-morse"), 10, HoppingModel(0.0, 1.0, 1.0))
    assert cli.main(["gaps", "--family", "rudin-shapiro", "--order", "10"]) == 0
    assert json.loads(capsys.readouterr().out)["gaps"]


@pytest.mark.parametrize("bad", [{"tol": -1e-3}, {"tol": math.nan}, {"q_max": -1},
                                 {"n_max": -1}, {"rel_threshold": 0.0},
                                 {"rel_threshold": math.nan}])
def test_bad_bounds_are_refused_before_any_work(monkeypatch, bad):
    def no_work(*args, **kwargs):
        raise AssertionError("bloch_report worked before it checked its bounds")

    monkeypatch.setattr(report_module, "trace_image", no_work)
    monkeypatch.setattr(report_module, "_approximant_gaps", no_work)
    with pytest.raises(ValueError):
        bloch_report("periodic", **bad)


def test_negative_order_is_refused_by_name():
    with pytest.raises(ValueError, match="order must be nonnegative"):
        hull_averaged_gaps(builtin_rule("fibonacci"), -1)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_documents_hold_no_nan_or_infinity(value):
    with pytest.raises(ValueError):
        to_json({"tolerance": value})
