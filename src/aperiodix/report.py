"""Assembles the gap-label / cohomology-trace / Bragg-module correspondence.

For one family this computes the cohomology trace image once and checks two
things against it: the gap labels of the tight-binding spectrum, and the
Bragg peaks of the scaling classification of the diffraction (2 pi times
the trace image holds every Bragg frequency; the relation is inclusion, not
equality).  It reports whether the structural and spectral data tell the
same story.  Verdicts are derived only from stored residuals and thresholds,
so a report is recomputable and byte-stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .cohomology import trace_image
from .diffraction import DiffractionSpectrum, classify_spectrum, module_distance
from .groups import GroupElement, LabelGroup, nearest_element
from .spectral import (
    EnergySpectrum,
    Gap,
    OnsiteModel,
    _sturm_count,
    build_chain,
    bulk_gaps,
    eigenvalues_tridiag,
)
from .substitution import builtin_rule, expansions

SCHEMA_VERSION = 1

DEFAULT_SPECTRAL_ORDER = {
    "periodic": 9,
    "fibonacci": 14,       # N = F_16 = 987
    "thue-morse": 10,
    "period-doubling": 10,
    "rudin-shapiro": 10,
}
DEFAULT_DIFFRACTION_ORDERS = (8, 10, 12, 14)
HULL_WINDOWS = 16


@dataclass(frozen=True)
class GapLabel:
    ids_value: float
    element: GroupElement
    residual: float


@dataclass(frozen=True)
class BraggCheck:
    k: float
    classification: str
    module_residual: float


@dataclass(frozen=True)
class CorrespondenceReport:
    family: str
    trace_group: LabelGroup
    gap_labels: tuple[GapLabel, ...]
    bragg_checks: tuple[BraggCheck, ...]
    tags: tuple[str, ...]
    gaps_in_trace_group: bool
    bragg_in_module: bool
    diffraction_matches_trace: bool
    spectral_order: int
    diffraction_orders: tuple[int, ...]
    tol: float
    # the order-spectral_order chain's spectrum the gaps were found in
    spectrum: EnergySpectrum = field(compare=False, repr=False)
    # the top diffraction order's contrast grid the peaks were picked from
    diffraction: DiffractionSpectrum = field(compare=False, repr=False)


def bloch_report(family: str, model=None, tol: float = 1e-3, q_max: int = 30,
                 n_max: int = 10, rel_threshold: float = 10.0) -> CorrespondenceReport:
    """Gap labels and Bragg peaks against the trace image of a built-in family.

    The gaps come from the family's DEFAULT_SPECTRAL_ORDER chain, the peaks
    from the DEFAULT_DIFFRACTION_ORDERS classification.  Each gap's counting
    value and each diffraction peak's k / 2 pi is matched to its nearest
    trace-image element under the same coordinate bounds; a Bragg peak
    counts as in the module within two grid cells.  Only inclusion is
    checked: the trace image may hold frequencies with no Bragg peak.
    diffraction_matches_trace holds only when the diffraction data consists
    of Bragg peaks alone, all inside the module: true for the periodic,
    Fibonacci and period-doubling families, false for Thue-Morse (a
    singular-continuous component survives) and Rudin-Shapiro (no Bragg
    peaks at all).  Bad bounds are refused before any work.
    """
    if not (tol >= 0 and rel_threshold > 0 and q_max >= 0 and n_max >= 0):
        raise ValueError(f"need tol, q_max, n_max >= 0 and rel_threshold > 0, got tol={tol}, "
                         f"q_max={q_max}, n_max={n_max}, rel_threshold={rel_threshold}")
    rule = builtin_rule(family)
    order = DEFAULT_SPECTRAL_ORDER[family]
    orders = DEFAULT_DIFFRACTION_ORDERS

    trace = trace_image(rule)

    spectrum, gaps = _hull_gaps(rule, order, model, rel_threshold)
    gap_labels = []
    for gap in gaps:
        element, residual = nearest_element(gap.ids_value, trace, q_max=q_max,
                                            n_max=n_max)
        gap_labels.append(GapLabel(gap.ids_value, element, residual))
    gaps_ok = all(g.residual <= tol for g in gap_labels)

    classification = classify_spectrum(rule, orders)
    ks = classification.spectrum.k_values
    k_cell = (ks[-1] - ks[0]) / (len(ks) - 1)
    checks = []
    for peak in classification.peaks:
        dist = module_distance(peak.k_star, trace, q_max=q_max, n_max=n_max)
        checks.append(BraggCheck(peak.k_star, peak.classification, dist))
    bragg_peaks = [c for c in checks if c.classification == "Bragg"]
    bragg_ok = all(c.module_residual <= 2 * k_cell for c in bragg_peaks)
    tags = tuple(sorted(classification.tags))
    matches = (tags == ("PP",)) and bragg_ok

    return CorrespondenceReport(
        family=family,
        trace_group=trace,
        gap_labels=tuple(gap_labels),
        bragg_checks=tuple(checks),
        tags=tags,
        gaps_in_trace_group=gaps_ok,
        bragg_in_module=bragg_ok,
        diffraction_matches_trace=matches,
        spectral_order=order,
        diffraction_orders=orders,
        tol=tol,
        spectrum=spectrum,
        diffraction=classification.spectrum,
    )


def module_for_family(family: str) -> LabelGroup:
    """The group a built-in family's Bragg peaks are checked against: its trace image.

    bloch_report uses the trace image it already holds; this derivation
    serves the benchmark's traced bloch replay.
    """
    return trace_image(builtin_rule(family))


def hull_averaged_gaps(rule, order: int, model=None,
                       rel_threshold: float = 10.0) -> list[Gap]:
    """Spectral gaps with counting values averaged over hull windows.

    A single free chain miscounts some gap labels by one state (boundary
    spectral flow), which matters at tolerances near 1/N.  Gap positions come
    from the full spectrum of the order-`order` chain; each gap's counting
    value is then averaged over same-length windows cut from a longer
    expansion (HULL_WINDOWS of them), where the +-1 boundary terms
    equidistribute and cancel.  A window's counting value at the gap midpoint
    is one Sturm count per gap, so no window spectrum is solved, and all
    windows are counted at every gap midpoint in one Sturm call along its
    windows axis.
    """
    return _hull_gaps(rule, order, model, rel_threshold)[1]


def _hull_gaps(rule, order, model, rel_threshold):
    """The base spectrum and the hull-averaged gaps found in it."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    model = model if model is not None else OnsiteModel(0.0, 1.0)
    seed = rule.alphabet[0]
    levels = islice(expansions(rule, (seed,)), order, order + 13)
    word = rule.project(next(levels)[seed])
    n = len(word)
    base = eigenvalues_tridiag(build_chain(word, model))
    gaps = bulk_gaps(base, rel_threshold)
    if not gaps:
        return base, []
    for words in levels:
        if len(words[seed]) >= 6 * n:
            break
    long_word = rule.project(words[seed])
    stride = max(1, (len(long_word) - n) // (HULL_WINDOWS - 1))
    # Sturm counts at twice each midpoint (the matrix eigenvalue of a halved
    # energy) take the levels strictly below, a counting function those at or
    # below: the two differ only for a window level on a midpoint.  All
    # windows have n sites and are counted in one call along a windows axis.
    # Summing count/n window by window keeps the ids those of window spectra
    # read by counting_function, to the last bit.
    xs = np.array([gap.lower + gap.upper for gap in gaps])
    chains = [build_chain(long_word[j * stride:j * stride + n], model)
              for j in range(HULL_WINDOWS)]
    counts = _sturm_count(np.stack([c.onsite for c in chains], axis=1),
                          np.stack([c.hopping * c.hopping for c in chains], axis=1),
                          xs)
    fractions = [[int(c) / n for c in row] for row in counts]
    refined = [Gap(gap.lower, gap.upper, gap.width,
                   sum(f[i] for f in fractions) / HULL_WINDOWS)
               for i, gap in enumerate(gaps)]
    return base, refined


def round15(x: float) -> float:
    """x rounded to the 15 significant digits every output carries."""
    return float(f"{x:.15g}")


def report_to_dict(report: CorrespondenceReport) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "family": report.family,
        "trace_group": report.trace_group.canonical_name,
        "spectral_order": report.spectral_order,
        "diffraction_orders": list(report.diffraction_orders),
        "tolerance": round15(report.tol),
        "gap_labels": [
            {
                "ids": round15(g.ids_value),
                "coordinates": list(g.element.coordinates),
                "value": round15(g.element.value),
                "residual": round15(g.residual),
            }
            for g in report.gap_labels
        ],
        "bragg_checks": [
            {
                "k": round15(c.k),
                "classification": c.classification,
                "module_residual": round15(c.module_residual),
            }
            for c in report.bragg_checks
        ],
        "tags": list(report.tags),
        "verdicts": {
            "gaps_in_trace_group": report.gaps_in_trace_group,
            "bragg_in_module": report.bragg_in_module,
            "diffraction_matches_trace": report.diffraction_matches_trace,
        },
    }


def to_json(data: dict) -> str:
    """The byte-deterministic JSON text of every document the package writes."""
    return json.dumps(data, sort_keys=True, indent=2, ensure_ascii=False,
                      allow_nan=False) + "\n"
