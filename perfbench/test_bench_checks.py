"""Each benchmark check accepts a right answer and rejects a deliberately wrong one.

Run with `python -m pytest perfbench/test_bench_checks.py -q` from the root of
the checkout.  Right answers come from the program at small sizes; wrong ones
change one thing in them.
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracles as O  # noqa: E402
import workloads as W  # noqa: E402
import run  # noqa: E402
from aperiodix import (CPParams, EnergySpectrum, LabelGroup, OnsiteModel,  # noqa: E402
                       build_chain, builtin_rule, bulk_gaps, cp_word,
                       eigenvalues_tridiag, nearest_element, peak_scaling,
                       positions_from_word, structure_factor_grid)


def rejects(check, out) -> bool:
    with pytest.raises(W.CheckFailed):
        check(out)
    return True


# -- chains ------------------------------------------------------------------

@pytest.fixture(scope="module")
def golden_chain():
    word = cp_word(CPParams.from_text("1/golden", phason=0.3), 0, 1000)
    spec = eigenvalues_tridiag(build_chain(word, OnsiteModel(0.0, 1.0)))
    return word, spec, O.tridiagonal_energies(*O.chain_arrays(word, W.ONSITE))


def test_spectrum_check(golden_chain):
    _, spec, own = golden_chain
    W.check_spectrum(own, spec)
    wrong = spec.eigenvalues.copy()
    wrong[7] += 1e-7
    assert rejects(lambda s: W.check_spectrum(own, s), dataclasses.replace(spec, eigenvalues=wrong))


def test_gaps_check(golden_chain):
    _, spec, own = golden_chain
    gaps = bulk_gaps(spec)
    W.check_gaps(own, W.GOLDEN_SLOPE, gaps)
    widest = max(range(len(gaps)), key=lambda i: gaps[i].width)
    shifted = list(gaps)
    shifted[widest] = dataclasses.replace(gaps[widest], ids_value=gaps[widest].ids_value + 3 / 1000)
    assert rejects(lambda g: W.check_gaps(own, W.GOLDEN_SLOPE, g), shifted)
    moved = [dataclasses.replace(g, lower=g.lower + 1e-6) for g in gaps]
    assert rejects(lambda g: W.check_gaps(own, W.GOLDEN_SLOPE, g), moved)


def test_labels_check(golden_chain):
    _, spec, _ = golden_chain
    group = LabelGroup(kind="two_gen", rho=W.GOLDEN_SLOPE)
    labels = [(g.ids_value, *nearest_element(g.ids_value, group, q_max=W.Q_SMALL))
              for g in bulk_gaps(spec)]
    W.check_labels(W.GOLDEN_SLOPE, False, labels)
    x, element, _ = labels[0]
    far = dataclasses.replace(element, coordinates=(element.coordinates[0] + 1,
                                                    element.coordinates[1]),
                              value=element.value + 1)
    assert rejects(lambda out: W.check_labels(W.GOLDEN_SLOPE, False, out),
                   [(x, far, abs(x - far.value))] + labels[1:])


def test_grid_check(golden_chain):
    word = golden_chain[0]
    atoms = positions_from_word(word, {"a": O.GOLDEN, "b": 1.0})
    spec = structure_factor_grid(atoms, 0.2, 0.2 + W.FOUR_PI, W.SAMPLES)
    W.check_grid(word, 0.2, [5, 900], spec)
    wrong = spec.S.copy()
    wrong[int(np.argmax(wrong))] *= 1 + 1e-6
    assert rejects(lambda s: W.check_grid(word, 0.2, [5, 900], s),
                   dataclasses.replace(spec, S=wrong))


@pytest.fixture(scope="module")
def merged_band():
    """The golden-4000 hopping chain's gaps and labels, from the program's
    bulk_gaps on the benchmark's own spectrum."""
    word = cp_word(CPParams.from_text("1/golden", phason=0.0), 0, 4000)
    own = O.tridiagonal_energies(*O.chain_arrays(word, W.HOPPING))
    spectrum = EnergySpectrum(own)
    gaps = bulk_gaps(spectrum)
    group = LabelGroup(kind="two_gen", rho=W.GOLDEN_SLOPE)
    labels = [(g.ids_value, *nearest_element(g.ids_value, group, q_max=W.Q_SMALL))
              for g in gaps]
    return own, (spectrum, gaps, labels)


def test_merged_band_fault(merged_band):
    own, out = merged_band
    assert rejects(lambda o: W.check_gaps(own, W.GOLDEN_SLOPE, o[1]), out)
    shows = lambda o: W.shows_merged_band(own, W.GOLDEN_SLOPE, o)  # noqa: E731
    assert shows(out)
    spectrum, gaps, labels = out
    merged = next(i for i, g in enumerate(gaps) if abs(g.ids_value - 0.5) <= 1 / len(own))
    other = max((i for i in range(len(gaps)) if i != merged), key=lambda i: gaps[i].width)
    # another wide gap off Z + sZ, edges that are not eigenvalues, a wrong label
    shifted = list(gaps)
    shifted[other] = dataclasses.replace(gaps[other], ids_value=gaps[other].ids_value + 3 / 4000)
    assert not shows((spectrum, shifted, labels))
    moved = list(gaps)
    moved[merged] = dataclasses.replace(gaps[merged], upper=gaps[merged].upper + 1e-6)
    assert not shows((spectrum, moved, labels))
    x, element, residual = labels[0]
    assert not shows((spectrum, gaps, [(x, element, residual + 0.01)] + labels[1:]))
    assert not shows((spectrum, [g for i, g in enumerate(gaps) if i != merged], labels))
    wrong = own.copy()
    wrong[7] += 1e-7
    assert not shows((EnergySpectrum(wrong), gaps, labels))


# -- diffraction -------------------------------------------------------------

def _diffract(tmp_path, family, order):
    path = tmp_path / "s.csv"
    argv = ["diffract", "--family", family, "--order", str(order), "--contrast",
            "--kmin", "0.3", "--kmax", repr(0.3 + W.FOUR_PI), "--out", str(path)]
    return W.run_cli(argv, [path])


def _scale_rows(out, factor, rows):
    code, (text,), err = out
    lines = text.splitlines()
    for r in rows:
        k, s = lines[r + 1].split(",")
        lines[r + 1] = f"{k},{float(s) * factor!r}"
    return code, ("\n".join(lines) + "\n",), err


def test_diffract_check(tmp_path):
    out = _diffract(tmp_path, "period-doubling", 9)
    check = lambda o: W.check_diffract("period-doubling", 9, 0.3, 0.3 + W.FOUR_PI, [3, 400], o)  # noqa: E731
    check(out)
    top = max(range(W.SAMPLES), key=lambda i: float(out[1][0].splitlines()[i + 1].split(",")[1]))
    assert rejects(check, _scale_rows(out, 1 + 1e-6, [top]))
    assert rejects(check, (1, ("",), "aperiodix: error: boom\n"))


def test_rudin_shapiro_flatness_check(tmp_path):
    out = _diffract(tmp_path, "rudin-shapiro", 14)
    check = lambda o: W.check_diffract("rudin-shapiro", 14, 0.3, 0.3 + W.FOUR_PI, [3], o)  # noqa: E731
    check(out)
    # a Bragg-like order-14 grid: every S scaled past the order-12 maximum
    text = out[1][0]
    lines = [text.splitlines()[0]] + [f"{ln.split(',')[0]},{float(ln.split(',')[1]) * 50!r}"
                                      for ln in text.splitlines()[1:]]
    assert rejects(check, (0, ("\n".join(lines) + "\n",), ""))


def test_peak_scaling_check():
    ps = peak_scaling(builtin_rule("fibonacci"), 2 * math.pi / O.GOLDEN, range(8, 13))
    W.check_peak_scaling("fibonacci", ps)
    assert rejects(lambda p: W.check_peak_scaling("fibonacci", p),
                   dataclasses.replace(ps, gamma=0.9, classification="SingularContinuous"))
    bumped = ps.amplitudes[:-1] + (ps.amplitudes[-1] * 1.001,)
    assert rejects(lambda p: W.check_peak_scaling("fibonacci", p),
                   dataclasses.replace(ps, amplitudes=bumped))
    assert rejects(lambda p: W.check_peak_scaling("thue-morse", p), ps)


# -- bloch -------------------------------------------------------------------

def _bloch_doc(family, order):
    """A right report document: each gap of the own spectrum labelled exactly."""
    word = O.expand(O.FAMILY_RULES[family], order)
    energies = O.tridiagonal_energies(*O.chain_arrays(word, W.ONSITE))
    n = len(energies)
    diffs = np.diff(energies)
    labels = []
    for i in np.flatnonzero(diffs > 10 * np.median(diffs)):
        x = (i + 1) / n
        if family == "fibonacci":
            q, _ = O.two_gen_residual(x, 1 / O.GOLDEN, 10)
            p = round(x - q / O.GOLDEN)
            coords, value = [p, q], p + q / O.GOLDEN
        else:
            e, _ = O.nearest_dyadic(x, O.Fraction(1, 3), 2, 4)
            m = round(x * 3 * 2 ** e)
            coords, value = [m, e], m / (3 * 2 ** e)
        labels.append({"ids": value, "coordinates": coords, "value": value, "residual": 0.0})
    if family == "fibonacci":
        ks, name = [2 * math.pi / O.GOLDEN, 2 * math.pi * (1 - 1 / O.GOLDEN)], \
            "Z+rho*Z(rho=0.6180339887)"
    else:
        ks, name = [math.pi, math.pi / 2], "(1/3)Z[1/2]"
    return {"trace_group": name, "spectral_order": order,
            "tolerance": 1e-3, "gap_labels": labels, "tags": ["PP"],
            "bragg_checks": [{"k": k, "classification": "Bragg", "module_residual": 0.0}
                             for k in ks],
            "verdicts": {"gaps_in_trace_group": True, "bragg_in_module": True,
                         "diffraction_matches_trace": True}}


def _out(doc, svg='<svg xmlns="http://www.w3.org/2000/svg"></svg>'):
    return 0, (json.dumps(doc), svg), ""


@pytest.mark.parametrize("family,order", [("fibonacci", 11), ("period-doubling", 8)])
def test_bloch_check(family, order):
    doc = _bloch_doc(family, order)
    check = lambda o: W.check_bloch(family, o)  # noqa: E731
    check(_out(doc))
    assert rejects(check, _out(doc, svg="<svg><g></svg>"))
    assert rejects(check, _out(dict(doc, trace_group="Z[1/3]")))
    assert rejects(check, _out(dict(doc, verdicts=dict(doc["verdicts"],
                                                       diffraction_matches_trace=False))))
    assert rejects(check, _out(dict(doc, tags=["PP", "SC"])))
    off = dict(doc["bragg_checks"][0], k=doc["bragg_checks"][0]["k"] + 0.05)
    assert rejects(check, _out(dict(doc, bragg_checks=[off] + doc["bragg_checks"][1:])))
    label = dict(doc["gap_labels"][0], value=doc["gap_labels"][0]["value"] + 0.25)
    assert rejects(check, _out(dict(doc, gap_labels=[label] + doc["gap_labels"][1:])))


def test_bloch_dyadic_exponent_bound():
    """The widest period-doubling gap relabelled m/(3 2^7) is rejected."""
    doc = _bloch_doc("period-doubling", 8)
    width = W.own_gap_width(O.tridiagonal_energies(
        *O.chain_arrays(O.expand(O.FAMILY_RULES["period-doubling"], 8), W.ONSITE)))
    labels = list(doc["gap_labels"])
    i = max(range(len(labels)), key=lambda j: width(labels[j]["ids"]))
    m = round((labels[i]["ids"] + 1 / 384) * 384)
    labels[i] = {"ids": m / 384, "coordinates": [m, 7], "value": m / 384, "residual": 0.0}
    with pytest.raises(W.CheckFailed, match="exponent"):
        W.check_bloch("period-doubling", _out(dict(doc, gap_labels=labels)))


# -- invariants --------------------------------------------------------------

def _cli(tmp_path, command, rule):
    path = tmp_path / "rule.json"
    path.write_text(json.dumps({k: rule[k] for k in ("alphabet", "images", "tiles") if k in rule}))
    out = tmp_path / "out.json"
    return W.run_cli([command, "--rule-file", str(path), "--out", str(out)], [out])


def _with(out, key, value):
    code, (text,), err = out
    return code, (json.dumps(dict(json.loads(text), **{key: value})),), err


def test_cohomology_check(tmp_path):
    fib = dict(O.FAMILY_RULES["fibonacci"], name="fibonacci", info={"cls": "family"})
    out = _cli(tmp_path, "cohomology", fib)
    W.check_cohomology(fib, out)
    assert rejects(lambda o: W.check_cohomology(fib, o), _with(out, "H1", "Z^3"))
    rule = {"alphabet": ["a", "b"], "images": {"a": "abb", "b": "a"}, "name": "r",
            "info": {"cls": "prime_power"}}
    out = _cli(tmp_path, "cohomology", rule)
    W.check_cohomology(rule, out)
    assert rejects(lambda o: W.check_cohomology(rule, o), _with(out, "H1", "Z^2"))


def test_trace_check(tmp_path):
    fib = dict(O.FAMILY_RULES["fibonacci"], name="fibonacci",
               info={"cls": "family", "family": "fibonacci"})
    out = _cli(tmp_path, "trace", fib)
    W.check_trace(fib, out)
    assert rejects(lambda o: W.check_trace(fib, o),
                   _with(out, "trace_group", "Z+rho*Z(rho=0.6180339880)"))

    rule = {"alphabet": ["a", "b"], "images": {"a": "abb", "b": "a"}}
    rule["info"] = O.perron_class(rule)
    out = _cli(tmp_path, "trace", rule)
    W.check_trace(rule, out)
    assert rejects(lambda o: W.check_trace(rule, o), _with(out, "trace_group", "(1/3)Z[1/3]"))
    assert rejects(lambda o: W.check_trace(rule, o), _with(out, "trace_group", "(3)Z[1/2]"))
    assert rejects(lambda o: W.check_trace(rule, o), (1, ("",), "aperiodix: error: no\n"))

    periodic = {"alphabet": ["a", "b"], "images": {"a": "aab", "b": "aabaab"}}
    periodic["info"] = O.perron_class(periodic)
    out = _cli(tmp_path, "trace", periodic)
    W.check_trace(periodic, out)
    assert rejects(lambda o: W.check_trace(periodic, o), _with(out, "trace_group", "(1/6)Z"))

    other = {"alphabet": ["a", "b"], "images": {"a": "bab", "b": "aa"}, "info": {"cls": "other"}}
    W.check_trace(other, _cli(tmp_path, "trace", other))
    assert rejects(lambda o: W.check_trace(other, o),
                   (1, ("",), "Traceback (most recent call last):\n  KeyError\n"))


def test_perron_classes():
    assert O.perron_class(O.FAMILY_RULES["fibonacci"])["cls"] == "quadratic_unit"
    assert O.perron_class(O.FAMILY_RULES["period-doubling"]) == {
        "cls": "prime_power", "lam": 2, "prime": 2}
    assert O.perron_class(O.FAMILY_RULES["periodic"]) == {"cls": "periodic", "period": 2}
    assert O.perron_class(W.TRIBONACCI_CLASS[0])["cls"] == "cubic_pisot_unit"
    assert O.char_poly([[1, 1, 1], [1, 0, 0], [0, 1, 0]]) == [1, -1, -1, -1]


def test_tribonacci_fault():
    shows = W.TRIBONACCI_FAULT.shows
    assert shows((1, ("",), W.UNRECOGNIZED_CUBIC))
    assert not shows((1, ("",), "Traceback (most recent call last):\n  Unrecognized\n"))
    assert not shows((1, ("",), "aperiodix: error: collared complex inconsistent\n"))
    assert not shows((0, ('{"trace_group": "Z[1/2]"}',), ""))


# -- verdicts ----------------------------------------------------------------

def test_verify_counts_only_the_named_fault():
    """A failure counts as the named fault only when the output shows it."""
    rule = dict(W.TRIBONACCI_CLASS[0], info=O.perron_class(W.TRIBONACCI_CLASS[0]))
    op = W.Op("cli.trace", "trace tribonacci", run=None,
              check=lambda out: W.check_trace(rule, out), fault=W.TRIBONACCI_FAULT)
    plain = dataclasses.replace(op, fault=None)
    fault_out = (1, ("",), W.UNRECOGNIZED_CUBIC)
    wrong = (0, (json.dumps({"trace_group": "Z[1/2]"}),), "")
    crash = KeyError("images")
    outputs = {"fault": fault_out, "wrong": wrong}
    assert run.verify([op], [[(0.1, "fault")]], outputs) == (1, [])
    assert run.verify([op, op], [[(0.1, "wrong"), (0.1, crash)]], outputs)[0] == 2
    assert len(run.verify([op, op], [[(0.1, "wrong"), (0.1, crash)]], outputs)[1]) == 2
    assert len(run.verify([plain], [[(0.1, "fault")]], outputs)[1]) == 1
