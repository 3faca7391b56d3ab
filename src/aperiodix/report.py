"""Assembles the gap-label / cohomology-trace / Bragg-module correspondence.

For one family this computes the cohomology trace image once and checks two
things against it: the gap labels of the tight-binding chain, and the
Bragg peaks of the scaling classification of the diffraction (2 pi times
the trace image holds every Bragg frequency; the relation is inclusion, not
equality).  It reports whether the structural and spectral data tell the
same story.  Verdicts are derived only from stored residuals and thresholds,
so a report is recomputable and byte-stable.

The gaps are those of the periodic approximant with period word
sigma^n(a), found with no eigen-solve by a scan of its lifted count
(spectral.lifted_counts): on a gap its integrated density of states is
exactly j/N, the paper's Bloch theorem for a periodic chain.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .cohomology import trace_image
from .diffraction import DiffractionSpectrum, classify_spectrum, module_distance
from .groups import GroupElement, LabelGroup, nearest_element
from .spectral import Gap, OnsiteModel, approximant, lifted_counts
from .substitution import builtin_rule

SCHEMA_VERSION = 1

DEFAULT_SPECTRAL_ORDER = {
    "periodic": 9,
    "fibonacci": 14,       # N = F_16 = 987
    "thue-morse": 10,
    "period-doubling": 10,
    "rudin-shapiro": 10,
}
DEFAULT_DIFFRACTION_ORDERS = (8, 10, 12, 14)
MIN_PERIOD = 16  # fewest letters of a period word whose gaps are looked for
REFINE_POINTS = 15  # shifts per edge bracket and pass of the edge refinement
REFINE_PASSES = 14  # most passes; 4 bits a pass reach a bracket of adjacent floats


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
    # halved energies and j/N at the ends of the approximant scan's runs
    counting: tuple = field(compare=False, repr=False)
    # the top diffraction order's contrast grid the peaks were picked from
    diffraction: DiffractionSpectrum = field(compare=False, repr=False)


def bloch_report(family: str, model=None, tol: float = 1e-3, q_max: int = 30,
                 n_max: int = 10, rel_threshold: float = 10.0) -> CorrespondenceReport:
    """Gap labels and Bragg peaks against the trace image of a built-in family.

    The gaps come from the family's DEFAULT_SPECTRAL_ORDER approximant, the
    peaks from the DEFAULT_DIFFRACTION_ORDERS classification.  Each gap's counting
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

    counting, gaps = _approximant_gaps(rule, order, model, rel_threshold)
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
        counting=counting,
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
    """The gaps of the periodic approximant with period word sigma^order(a).

    The name and call form are kept on purpose: perfbench/workloads.py
    (bloch_parts) calls it.  Nothing is averaged over the hull: a periodic
    chain has no edge modes, and its counting value on a gap is exactly j/N
    (see _approximant_gaps).
    """
    return _approximant_gaps(rule, order, model, rel_threshold)[1]


def _approximant_gaps(rule, order, model, rel_threshold):
    """(curve, gaps) of the approximant, found by a scan of its lifted count.

    The shift x = 2e runs over a grid of the approximant's Gershgorin
    interval.  At each grid point spectral.lifted_counts gives the count j
    per period where it certifies one (hyperbolic transfer matrix, integral
    rotation number), which holds in a gap and not in a band.  A gap is a
    maximal run of certified points with one j, 0 < j < N.  Each run's
    edges are refined in all runs at once by multisection on the same
    predicate: REFINE_POINTS points inside each edge's bracket per pass,
    until the brackets stop shrinking.  rel_threshold is measured against
    the mean level spacing, the interval's width over N, and the grid step
    is at most half that width, so no gap wider than it is missed.  Each
    gap's ids is j/N exactly.  curve holds the halved energies and j/N at
    the ends of every run, at most N points, for the N(e) plot.
    """
    if not rel_threshold > 0:
        raise ValueError(f"rel_threshold must be positive, got {rel_threshold}")
    appr = approximant(rule, order, model if model is not None else OnsiteModel(0.0, 1.0))
    n = appr.size
    if n < MIN_PERIOD:
        raise ValueError(f"need a period word of at least {MIN_PERIOD} letters, "
                         f"got {n} at order {order}")
    span = appr.upper - appr.lower
    threshold = rel_threshold * span / n
    xs = np.linspace(appr.lower, appr.upper, max(n, math.ceil(2 * n / rel_threshold)) + 1)
    counts = lifted_counts(appr, xs)
    j, certified = counts.periodic, counts.certified
    # runs: maximal stretches of certified grid points with one count (an
    # uncertified point counts -1)
    change = j[1:] != j[:-1]
    start = np.flatnonzero(certified & np.r_[True, change])
    stop = np.flatnonzero(certified & np.r_[change, True])
    ends = np.unique(np.r_[start, stop])
    ends = ends[::max(1, -(-len(ends) // n))]
    curve = (0.5 * xs[ends], j[ends] / n)
    inner = (j[start] > 0) & (j[start] < n) & (start > 0) & (stop < len(xs) - 1)
    start, stop = start[inner], stop[inner]
    # a run whose outer neighbours are under the threshold apart is no gap
    wide = xs[stop + 1] - xs[start - 1] > threshold
    start, stop = start[wide], stop[wide]
    labels = j[start]
    lower, upper = _refine(appr, xs[np.r_[start, stop]], xs[np.r_[start - 1, stop + 1]],
                           np.r_[labels, labels]).reshape(2, -1)
    gaps = [Gap(0.5 * lo, 0.5 * up, 0.5 * up - 0.5 * lo, int(label) / n)
            for lo, up, label in zip(lower, upper, labels) if up - lo > threshold]
    return curve, gaps


def _refine(appr, inside, outside, labels):
    """Each gap edge moved from its certified shift `inside` towards `outside`,
    the nearest shift known to lie past the edge, while the count stays
    certified at its label: REFINE_POINTS evenly spaced shifts per bracket
    and pass, all brackets in one lifted_counts call, until none shrinks."""
    steps = np.arange(1, REFINE_POINTS + 1) / (REFINE_POINTS + 1)
    rows = np.arange(len(inside))
    for _ in range(REFINE_PASSES):
        points = np.column_stack([inside, inside[:, None] + (outside - inside)[:, None] * steps,
                                  outside])
        counts = lifted_counts(appr, points[:, 1:-1].ravel())
        held = counts.certified & (counts.periodic == np.repeat(labels, REFINE_POINTS))
        # the first shift, from the inside, where the gap no longer holds
        first = np.argmin(np.column_stack([np.ones(len(rows), dtype=bool),
                                           held.reshape(-1, REFINE_POINTS),
                                           np.zeros(len(rows), dtype=bool)]), axis=1)
        if np.array_equal(points[rows, first - 1], inside) and np.array_equal(
                points[rows, first], outside):
            break
        inside, outside = points[rows, first - 1], points[rows, first]
    return inside


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
