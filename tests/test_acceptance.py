"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import subprocess
import sys
from collections import Counter

import numpy as np

from aperiodix.cli import main as cli_main
from aperiodix.cohomology import cech_h1, trace_image
from aperiodix.diffraction import (
    classify_spectrum,
    contrast_spectrum,
    module_distance,
    peak_scaling,
)
from aperiodix.groups import localized_group, nearest_element, two_gen_group
from aperiodix.report import hull_averaged_gaps
from aperiodix.spectral import (
    OnsiteModel,
    HoppingModel,
    TightBindingChain,
    _sturm_count,
    build_chain,
    eigenvalues_tridiag,
)
from aperiodix.substitution import builtin_rule, expand_word
from closed_forms import group_for_family
from spectral_oracles import brute_force_eigs, counting_function

FAMILIES = ("periodic", "fibonacci", "thue-morse", "period-doubling", "rudin-shapiro")
GOLDEN = (1 + math.sqrt(5)) / 2


def _verdict(num: int, text: str, ok: bool):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_01_table1_cohomology():
    expected = {
        "periodic": (1, ()),
        "fibonacci": (2, ()),
        "thue-morse": (1, ((2, 1),)),
        "period-doubling": (1, ((2, 1),)),
        "rudin-shapiro": (1, ((2, 3),)),
    }
    ok = True
    for family, (rank, localized) in expected.items():
        h1 = cech_h1(builtin_rule(family))
        ok &= h1.recognized and (h1.free_rank, h1.localized) == (rank, localized)
    _verdict(1, "Cech H^1 equals the Table 1 column for all five families", ok)


def test_criterion_02_table1_trace():
    expected_names = {
        "periodic": "(1/2)Z",
        "fibonacci": "Z+rho*Z(rho=0.6180339887)",
        "thue-morse": "(1/3)Z[1/2]",
        "period-doubling": "(1/3)Z[1/2]",
        "rudin-shapiro": "Z[1/2]",
    }
    ok = True
    for family in FAMILIES:
        group = trace_image(builtin_rule(family))
        ok &= group.canonical_name == expected_names[family]
        ok &= group == group_for_family(family)
    _verdict(2, "trace image recognised exactly and equals group_for_family", ok)


def test_criterion_03_fibonacci_gap_labels():
    rule = builtin_rule("fibonacci")
    gaps = hull_averaged_gaps(rule, 14, OnsiteModel(0.0, 1.0), 10.0)  # N = F_16 = 987
    group = group_for_family("fibonacci")
    ok = len(gaps) > 5
    for gap in gaps:
        _, residual = nearest_element(gap.ids_value, group, q_max=30)
        ok &= residual <= 1e-3
    widest = sorted(gaps, key=lambda g: -g.width)[:2]
    ids_pair = sorted(g.ids_value for g in widest)
    coords = [nearest_element(g.ids_value, group, q_max=30)[0].coordinates
              for g in widest]
    ok &= abs(ids_pair[0] - (1 - 1 / GOLDEN)) <= 2e-3
    ok &= abs(ids_pair[1] - 1 / GOLDEN) <= 2e-3
    ok &= sorted(q for _, q in coords) == [-1, 1]
    _verdict(3, "Fibonacci N=987 gap ids within 1e-3 of p + q/lambda "
                "(|p|,|q|<=30); widest gaps labelled q = -+1", ok)


def test_criterion_04_dyadic_gap_labels():
    ok = True
    for family in ("period-doubling", "thue-morse", "rudin-shapiro"):
        rule = builtin_rule(family)
        gaps = hull_averaged_gaps(rule, 10, OnsiteModel(0.0, 1.0), 10.0)
        group = group_for_family(family)
        ok &= len(gaps) >= 3
        for gap in gaps:
            _, residual = nearest_element(gap.ids_value, group, n_max=10)
            ok &= residual <= 1e-3
    _verdict(4, "period-doubling/Thue-Morse gap ids in (1/3) m/2^N and "
                "Rudin-Shapiro in m/2^N within 1e-3", ok)


def test_criterion_05_fibonacci_bragg_saturation():
    ps = peak_scaling(builtin_rule("fibonacci"), 2 * math.pi / GOLDEN,
                      orders=range(8, 17))
    ok = ps.gamma >= 0.95 and ps.classification == "Bragg"
    _verdict(5, f"Fibonacci dominant peak gamma = {ps.gamma:.4f} >= 0.95 "
                "over orders 8..16", ok)


def test_criterion_06_thue_morse_sc_exponent():
    target = math.log2(3) - 1
    ps = peak_scaling(builtin_rule("thue-morse"), 2 * math.pi / 3,
                      orders=range(8, 17))
    ok = abs(ps.gamma - target) <= 0.08
    _verdict(6, f"Thue-Morse gamma = {ps.gamma:.4f} within 0.08 of "
                f"log2(3)-1 = {target:.4f} over orders 8..16", ok)


def test_criterion_07_rudin_shapiro_flat():
    rule = builtin_rule("rudin-shapiro")
    maxima = []
    for order in (8, 10, 12):
        spec = contrast_spectrum(rule, order, 0.05, 4 * math.pi, 2048)
        maxima.append(float((spec.S / spec.n_atoms).max()))
    ok = maxima[-1] < 0.05 and maxima[0] > maxima[1] > maxima[2]
    _verdict(7, f"Rudin-Shapiro max S/N off 0 = {maxima[-1]:.2e} < 0.05 at "
                "order 12, decreasing with order (AC)", ok)


def test_criterion_08_bragg_module_membership():
    resolution = (4 * math.pi - 0.05) / 2047  # classify grid cell
    # the closed-form Bragg modules, in units of 2 pi
    modules = {"fibonacci": two_gen_group(1 / GOLDEN),
               "period-doubling": localized_group(1, 2)}
    ok = True
    for family, module in modules.items():
        cls = classify_spectrum(builtin_rule(family), orders=(8, 10, 12, 14))
        bragg = [p for p in cls.peaks if p.classification == "Bragg"]
        ok &= len(bragg) >= 2
        for peak in bragg:
            dist = module_distance(peak.k_star, module, q_max=10, n_max=8)
            ok &= dist <= resolution
    _verdict(8, "every Bragg peak of Fibonacci within resolution of "
                "2pi(p + q/lambda), of period doubling within 2pi m/2^N", ok)


def test_criterion_09_eigensolver_oracle():
    rng = np.random.default_rng(2024)
    words = []
    for family in FAMILIES:
        rule = builtin_rule(family)
        expanded = rule.project(expand_word(rule, rule.alphabet[0], 6))
        words.append(expanded)
    ok = True
    checked = 0
    for trial in range(200):
        base = words[trial % len(words)]
        n = int(rng.integers(2, 13))
        start = int(rng.integers(0, len(base) - n))
        word = base[start:start + n]
        va, vb = (float(x) for x in rng.uniform(-2.0, 2.0, 2))
        if trial % 2 == 0:
            model = OnsiteModel(va, vb)
        else:
            model = HoppingModel(va, vb, float(rng.uniform(0.1, 1.5)))
        chain = build_chain(word, model)
        e_main = eigenvalues_tridiag(chain).eigenvalues
        e_oracle = brute_force_eigs(chain).eigenvalues
        ok &= bool(np.max(np.abs(e_main - e_oracle)) < 1e-10)
        checked += 1

        # property suite on the same chain
        shifted = TightBindingChain(chain.onsite + 1.0, chain.hopping)
        e_shift = eigenvalues_tridiag(shifted).eigenvalues
        ok &= bool(np.max(np.abs(e_shift - (e_main + 0.5))) < 1e-12)
        if chain.size > 2:
            sub = TightBindingChain(chain.onsite[:-1], chain.hopping[:-1])
            e_sub = brute_force_eigs(sub).eigenvalues
            for i in range(chain.size - 1):
                ok &= e_main[i] <= e_sub[i] + 1e-10 <= e_main[i + 1] + 2e-10
        spec = eigenvalues_tridiag(chain)
        for e in rng.uniform(-2.5, 2.5, 4):
            count = int(_sturm_count(chain.onsite, chain.hopping**2,
                                     np.array([2 * float(e)]))[0])
            ok &= count == round(spec.size * counting_function(spec, float(e) - 1e-12))
    _verdict(9, f"Sturm bisection vs charpoly oracle to 1e-10 on {checked} "
                "random chains; shift/interlacing/count properties hold", ok)


def test_criterion_10_perron_frequency_convergence():
    targets = {
        "fibonacci": {"a": 1 / GOLDEN, "b": 1 - 1 / GOLDEN},
        "thue-morse": {"a": 0.5, "b": 0.5},
        "period-doubling": {"a": 2 / 3, "b": 1 / 3},
    }
    ok = True
    for family, freqs in targets.items():
        rule = builtin_rule(family)
        word = expand_word(rule, "a", 20)
        counts = Counter(word)
        for letter, value in freqs.items():
            ok &= abs(counts[letter] / len(word) - value) < 1e-6
    _verdict(10, "letter frequencies at order 20 match the closed forms "
                 "to 1e-6 for Fibonacci, Thue-Morse, period doubling", ok)


def test_criterion_11_bloch_verdicts(reports):
    expected = {"periodic": True, "fibonacci": True, "thue-morse": False,
                "period-doubling": True, "rudin-shapiro": False}
    ok = True
    for family in FAMILIES:
        report = reports[family]
        ok &= report.gaps_in_trace_group
        ok &= report.diffraction_matches_trace == expected[family]
    _verdict(11, "diffraction_matches_trace true for periodic/Fibonacci/"
                 "period-doubling, false for Thue-Morse/Rudin-Shapiro; "
                 "gaps_in_trace_group true for all five", ok)


def test_criterion_12_cli_determinism(tmp_path, capsys):
    invocations = [
        ["generate", "--family", "fibonacci", "--order", "9"],
        ["diffract", "--family", "periodic", "--order", "7", "--samples", "512"],
        ["diffract", "--family", "thue-morse", "--order", "8", "--contrast",
         "--samples", "512"],
        ["spectrum", "--family", "period-doubling", "--order", "8"],
        ["gaps", "--family", "periodic", "--order", "8", "--vb", "2"],
        ["cohomology", "--family", "rudin-shapiro"],
        ["trace", "--family", "thue-morse"],
        ["bloch", "--family", "periodic"],
    ]
    ok = True
    for argv in invocations:
        outputs = []
        for threads in ("1", "3"):
            code = cli_main(["--threads", threads] + argv)
            captured = capsys.readouterr()
            ok &= code == 0
            outputs.append(captured.out)
        code = cli_main(["--threads", "1"] + argv)
        outputs.append(capsys.readouterr().out)
        ok &= outputs[0] == outputs[1] == outputs[2] and len(outputs[0]) > 0
    # byte-identical through the real process boundary as well
    runs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "aperiodix.cli", "trace", "--family",
             "fibonacci"], capture_output=True)
        ok &= proc.returncode == 0
        runs.append(proc.stdout)
    ok &= runs[0] == runs[1]
    _verdict(12, "every CLI subcommand is byte-identical across repeats "
                 "and --threads values", ok)
