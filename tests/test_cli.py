import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from aperiodix import cli
from aperiodix.cli import build_parser, main
from aperiodix import svgplot
from aperiodix.svgplot import Series, render_svg


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_generate_fibonacci_length(capsys):
    code, out, _ = run_cli(["generate", "--family", "fibonacci", "--order", "10"],
                           capsys)
    assert code == 0
    data = json.loads(out)
    assert data["length"] == 144
    assert data["schema"] == 1
    assert len(data["word"]) == 144


def test_generate_chain_csv(tmp_path, capsys):
    chain_path = tmp_path / "chain.csv"
    code, _, _ = run_cli(["generate", "--family", "fibonacci", "--order", "6",
                          "--out", str(tmp_path / "word.json"),
                          "--chain-csv", str(chain_path)], capsys)
    assert code == 0
    lines = chain_path.read_text().splitlines()
    assert lines[0] == "index,letter,position"
    assert len(lines) == 22  # F_8 = 21 tiles + header


def test_cohomology_thue_morse(capsys):
    code, out, _ = run_cli(["cohomology", "--family", "thue-morse"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["H1"] == "Z ⊕ Z[1/2]"


def test_trace_all_families(capsys):
    expected = {
        "periodic": "(1/2)Z",
        "fibonacci": "Z+rho*Z(rho=0.6180339887)",
        "thue-morse": "(1/3)Z[1/2]",
        "period-doubling": "(1/3)Z[1/2]",
        "rudin-shapiro": "Z[1/2]",
    }
    for family, name in expected.items():
        code, out, _ = run_cli(["trace", "--family", family], capsys)
        assert code == 0
        assert json.loads(out)["trace_group"] == name


def test_diffract_periodic_comb(tmp_path, capsys):
    out_path = tmp_path / "spec.csv"
    code, _, _ = run_cli(["diffract", "--family", "periodic", "--order", "8",
                          "--kmax", "12.566", "--samples", "2001",
                          "--out", str(out_path)], capsys)
    assert code == 0
    rows = [line.split(",") for line in out_path.read_text().splitlines()[1:]]
    ks = np.array([float(r[0]) for r in rows])
    svals = np.array([float(r[1]) for r in rows])
    n = 256  # 2^8 atoms
    assert svals.max() == pytest.approx(n, rel=1e-6)
    top = ks[svals > 0.5 * n]
    for k in top:
        assert min(abs(k - 2 * math.pi * m) for m in range(3)) < 0.02


def test_spectrum_and_gaps_round_trip(tmp_path, capsys):
    spath = tmp_path / "spectrum.csv"
    code, _, _ = run_cli(["spectrum", "--family", "fibonacci", "--order", "12",
                          "--va", "0", "--vb", "1", "--out", str(spath)], capsys)
    assert code == 0
    lines = spath.read_text().splitlines()
    assert lines[0] == "index,eigenvalue"
    assert len(lines) == 378  # F_14 = 377 eigenvalues + header

    gpath = tmp_path / "gaps.json"
    code, _, _ = run_cli(["gaps", "--family", "fibonacci",
                          "--spectrum-file", str(spath),
                          "--out", str(gpath)], capsys)
    assert code == 0
    doc = json.loads(gpath.read_text())
    assert doc["group"] == "Z+rho*Z(rho=0.6180339887)"
    assert doc["gaps"]
    widest = max(doc["gaps"], key=lambda g: g["width"])
    assert abs(widest["ids"] - 0.618) < 5e-3

    # bloch accepts the gaps document
    bpath = tmp_path / "bloch.json"
    code, _, _ = run_cli(["bloch", "--family", "periodic",
                          "--gaps-file", str(gpath), "--out", str(bpath)], capsys)
    assert code == 0
    bloch = json.loads(bpath.read_text())
    assert "gaps_file_ids" in bloch
    assert bloch["verdicts"]["gaps_in_trace_group"] is True


def test_gaps_computed_directly(capsys):
    code, out, _ = run_cli(["gaps", "--family", "periodic", "--order", "8",
                            "--vb", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["gaps"]) == 1
    assert doc["gaps"][0]["label"]["in_group"] is True


def test_gaps_at_a_large_order(capsys):
    # N = F_22 = 17711: no eigen-solve, so this costs a scan of lifted counts.
    # Ten mean spacings resolve gaps with |q| up to 80 at this order.
    code, out, _ = run_cli(["gaps", "--family", "fibonacci", "--order", "20",
                            "--q-max", "100"], capsys)
    assert code == 0
    gaps = json.loads(out)["gaps"]
    assert len(gaps) > 50
    golden = (1 + math.sqrt(5)) / 2
    for gap in gaps:
        p, q = gap["label"]["coordinates"]
        assert gap["label"]["in_group"] is True
        assert abs(gap["ids"] - (p + q / golden)) <= 1e-3
        assert round(gap["ids"] * 17711, 6) == round(gap["ids"] * 17711)


def test_bloch_svg_plots_at_most_one_point_per_level(tmp_path, capsys):
    # the N(e) panel draws j/N at the ends of the approximant scan's runs,
    # never more points than the N = 987 levels of a period
    svg = tmp_path / "bloch.svg"
    code, _, _ = run_cli(["bloch", "--family", "fibonacci", "--out", str(tmp_path / "b.json"),
                          "--svg", str(svg)], capsys)
    assert code == 0
    text = svg.read_text(encoding="utf-8")
    bottom = text.split("<polyline")[2].split('points="')[1].split('"')[0].split()
    assert 0 < len(bottom) <= 987
    assert len(text.encode("utf-8")) < 48265  # the size of the one-point-per-level plot


@pytest.mark.parametrize("order", ["3", "-1", "40"])
def test_gaps_refuse_short_negative_and_over_cap_orders(capsys, order):
    # order 3 is a period of 5 letters; order 40 a word of F_42 > 10^7 letters
    code, out, err = run_cli(["gaps", "--family", "fibonacci", "--order", order], capsys)
    assert (code, out) == (1, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("aperiodix: error:")
    assert "Traceback" not in err


def test_determinism_and_threads_flag(capsys):
    runs = []
    for threads in ("1", "4"):
        code, out, _ = run_cli(["--threads", threads, "diffract", "--family",
                                "thue-morse", "--order", "8", "--contrast",
                                "--samples", "512"], capsys)
        assert code == 0
        runs.append(out)
    code, out, _ = run_cli(["--threads", "1", "diffract", "--family",
                            "thue-morse", "--order", "8", "--contrast",
                            "--samples", "512"], capsys)
    runs.append(out)
    assert runs[0] == runs[1] == runs[2]


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "aperiodix.cli", "generate"],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr


def test_main_builds_the_parser_once(monkeypatch, capsys):
    built = []

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    for family in ("periodic", "fibonacci", "thue-morse"):
        for command in ("trace", "cohomology"):
            assert run_cli([command, "--family", family], capsys)[0] == 0
    with pytest.raises(SystemExit):
        main(["trace"])
    capsys.readouterr()
    assert built == [1]
    assert build_parser() is not build_parser()


# A refusal, a usage error (exit 2) and --threads between the calls that the
# reused parser serves; "usage" lines wrap at COLUMNS, fixed for both sides.
INTERLEAVED_CALLS = [
    ["trace", "--family", "fibonacci"],
    ["cohomology", "--family", "thue-morse"],
    ["cohomology"],
    ["diffract", "--family", "period-doubling", "--contrast", "--order", "5",
     "--samples", "16"],
    ["trace", "--rule-file", "NOT_PRIMITIVE"],
    ["--threads", "4", "trace", "--family", "rudin-shapiro"],
    ["trace", "--family", "fibonacci"],
]


def test_interleaved_calls_match_a_fresh_interpreter(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    rule = tmp_path / "rule.json"
    rule.write_text(NOT_PRIMITIVE, encoding="utf-8")
    calls = [[str(rule) if a == "NOT_PRIMITIVE" else a for a in argv]
             for argv in INTERLEAVED_CALLS]
    codes = set()
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
        out = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "aperiodix.cli", *argv],
                               capture_output=True)
        assert (code, out.out.encode(), out.err.encode()) == (
            fresh.returncode, fresh.stdout, fresh.stderr), argv
        codes.add(code)
    assert codes == {0, 1, 2}


def test_computation_error_exit_code(tmp_path, capsys):
    code, _, err = run_cli(["generate", "--family", "thue-morse",
                            "--order", "64"], capsys)
    assert code == 1
    assert "error" in err


# b never reaches a: no power of the occurrence matrix is strictly positive
NOT_PRIMITIVE = '{"images": {"a": "aab", "b": "b"}, "alphabet": ["a", "b"]}'
# a list passes the image's letter test, set(word) <= letters, like a word
LIST_IMAGE = '{"alphabet": ["a", "b"], "images": {"a": ["a", "b"], "b": "a"}}'
LIST_TILE = ('{"alphabet": ["a", "b"], "images": {"a": "ab", "b": "a"}, '
             '"tiles": {"a": ["a"], "b": "b"}}')
# a two-character tile would turn one letter into two sites
LONG_TILE = ('{"alphabet": ["a", "b"], "images": {"a": "ab", "b": "a"}, '
             '"tiles": {"a": "ab", "b": "b"}}')


@pytest.mark.parametrize("command, flag, text", [
    ("cohomology", "--rule-file", '{"alphabet": ["a", "b"]}'),
    ("trace", "--rule-file", "[1, 2]"),
    ("gaps", "--spectrum-file", "index,eigenvalue\n0 0.5\n"),
    ("gaps", "--spectrum-file", "index,eigenvalue\n6,0.5\n7,x\n"),
    ("bloch", "--gaps-file", '{"gaps": [{"lower": 0.1}]}'),
    ("diffract --contrast", "--samples", "0"),
    ("diffract --contrast --kmax 1", "--kmin", "3"),
    ("bloch", "--nmax", "-1"),
    ("gaps", "--q-max", "-1"),
    ("trace", "--rule-file", NOT_PRIMITIVE),
    ("cohomology", "--rule-file", NOT_PRIMITIVE),
    ("trace", "--rule-file", LIST_IMAGE),
    ("cohomology", "--rule-file", LIST_IMAGE),
    ("generate", "--rule-file", LIST_TILE),
    ("generate --order 4", "--rule-file", LONG_TILE),
    ("spectrum --order 6", "--rule-file", LONG_TILE),
    ("generate", "--phason", "nan"),
    ("spectrum", "--va", "nan"),
    ("spectrum", "--vb", "inf"),
    ("spectrum --model hopping", "--eps", "nan"),
    ("diffract", "--kmax", "inf"),
    ("diffract", "--kmin", "nan"),
    # each end is finite, k_max - k_min is not
    ("diffract --kmin -1e308", "--kmax", "1e308"),
    ("diffract --contrast --kmin -1e308", "--kmax", "1e308"),
    ("gaps", "--tol", "nan"),
    ("bloch", "--tol", "nan"),
    ("gaps", "--rel-threshold", "inf"),
    ("gaps", "--tol", "-1"),
    ("gaps", "--tol", "-1e-3"),
    ("bloch", "--tol", "-0.001"),
    ("gaps", "--rel-threshold", "0"),
    ("bloch", "--rel-threshold", "-1"),
    # 2 eps^2 |v| = 1800: the squared bonds overflow exp
    ("gaps --model hopping --eps 30", "--va", "-1"),
    ("spectrum --model hopping --eps 30", "--va", "-1"),
    # eps^2 itself overflows a float
    ("spectrum --model hopping", "--eps", "1e200"),
    ("gaps --model hopping", "--eps", "1e200"),
    # finite site energies whose Gershgorin span 2 (max |v| + 2) overflows
    ("spectrum --vb -1e308", "--va", "1e308"),
    ("gaps --vb -1e308", "--va", "1e308"),
    # a finite grid whose phases k x overflow
    ("diffract --samples 3", "--kmax", "1e307"),
    ("diffract --contrast --samples 3", "--kmax", "1e307"),
    # x over the smallest step of Z[1/2] overflows
    ("gaps --family thue-morse --order 8", "--nmax", "1100"),
    ("bloch --family thue-morse", "--nmax", "1100"),
])
def test_malformed_input_is_a_one_line_error(tmp_path, capsys, command, flag, text):
    # flags ending in -file read the text from a file, the others take it as is
    args = [*command.split(), flag, text]
    if flag.endswith("-file"):
        path = tmp_path / "input"
        path.write_text(text, encoding="utf-8")
        args[-1] = str(path)
    if flag != "--rule-file" and "--family" not in command:
        args += ["--family", "periodic"]
    code, _, err = run_cli(args, capsys)
    assert code == 1
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("aperiodix: error:")


def test_negative_flag_values_in_any_float_form(capsys):
    # argparse alone takes -1e-3 and -inf for option names, not values
    base = ["spectrum", "--family", "periodic", "--order", "6"]
    code, spaced, _ = run_cli([*base, "--va", "-1e-3"], capsys)
    assert code == 0
    assert run_cli([*base, "--va=-1e-3"], capsys) == (0, spaced, "")
    code, _, err = run_cli([*base, "--model", "hopping", "--eps", "-inf"], capsys)
    assert code == 1
    assert err == "aperiodix: error: --eps must be finite, got -inf\n"


@pytest.mark.parametrize("slope", ["-1/2", "-1/golden"])
def test_negative_fraction_slope_is_a_value(capsys, slope):
    # a dash and a digit start a value, never an option name
    code, _, err = run_cli(["generate", "--slope", slope, "--count", "5"], capsys)
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("aperiodix: error:")
    assert run_cli(["generate", f"--slope={slope}", "--count", "5"], capsys) == (1, "", err)


def test_generate_zero_denominator_slope_is_a_one_line_error(capsys):
    # --slope excludes --family, so the malformed-input table cannot carry it
    code, _, err = run_cli(["generate", "--slope", "1/0"], capsys)
    assert code == 1
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("aperiodix: error:")
    assert "1/0" in lines[0]


@pytest.mark.parametrize("slope", ["-1/golden", "2/golden", "0.5/2", "abc"])
def test_generate_malformed_slope_names_the_accepted_forms(capsys, slope):
    code, out, err = run_cli(["generate", "--slope", slope], capsys)
    assert (code, out) == (1, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("aperiodix: error:")
    assert '"p/q" with integers p and q, a decimal, or "1/golden"' in lines[0]


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_gaps_refuses_non_finite_eigenvalues(tmp_path, capsys, value):
    rows = [f"{i},{e:.15g}" for i, e in enumerate(np.linspace(-1.0, 1.0, 32))]
    rows[5] = f"5,{value}"
    path = tmp_path / "spectrum.csv"
    path.write_text("index,eigenvalue\n" + "\n".join(rows) + "\n", encoding="utf-8")
    code, out, err = run_cli(["gaps", "--family", "periodic", "--spectrum-file", str(path)],
                             capsys)
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"aperiodix: error: {path}: every eigenvalue must be finite"]


def test_gaps_names_the_row_of_a_non_numeric_eigenvalue(tmp_path, capsys):
    path = tmp_path / "spectrum.csv"
    path.write_text("index,eigenvalue\n6,0.5\n7,x\n", encoding="utf-8")
    code, out, err = run_cli(["gaps", "--family", "periodic", "--spectrum-file", str(path)],
                             capsys)
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        f"aperiodix: error: {path}: row '7,x' has a non-numeric eigenvalue"]


def test_generate_cut_project_golden(capsys):
    code, out, _ = run_cli(["generate", "--slope", "1/golden", "--count", "8"],
                           capsys)
    assert code == 0
    data = json.loads(out)
    assert data["word"].startswith("abaab")
    assert data["periodic"] is False


def test_generate_cut_project_rational(capsys):
    code, out, _ = run_cli(["generate", "--slope", "2/5", "--count", "20",
                            "--phason", "0.0"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["periodic"] is True and data["period"] == 5
    word = data["word"]
    assert all(word[i] == word[i + 5] for i in range(15))


def test_rule_file_input(tmp_path, capsys):
    rule_path = tmp_path / "rule.json"
    rule_path.write_text(json.dumps({
        "name": "custom-fib", "alphabet": ["x", "y"],
        "images": {"x": "xy", "y": "x"}}))
    code, out, _ = run_cli(["generate", "--rule-file", str(rule_path),
                            "--order", "5"], capsys)
    assert code == 0
    assert json.loads(out)["length"] == 13


def _rule_file(tmp_path, images):
    path = tmp_path / "rule.json"
    path.write_text(json.dumps({"alphabet": sorted(images), "images": images}))
    return str(path)


def test_window_period_without_the_certificate_is_no_period(tmp_path, capsys):
    # the 2^18-letter prefix of sigma^2's fixed point has the period 5^6, yet
    # sigma^2(w) != w^25 for its prefix w of 5^6 letters: no period
    rule = _rule_file(tmp_path, {"a": "bbbba", "b": "aaaaa"})
    code, out, _ = run_cli(["trace", "--rule-file", rule], capsys)
    assert code == 0 and json.loads(out)["trace_group"] == "(1/9)Z[1/5]"
    code, out, _ = run_cli(["cohomology", "--rule-file", rule], capsys)
    assert code == 0 and "periodic" not in json.loads(out)["note"]


def test_false_period_of_a_composite_inflation_is_refused(tmp_path, capsys):
    rule = _rule_file(tmp_path, {"a": "bababa", "b": "aaaaaa"})
    code, _, err = run_cli(["trace", "--rule-file", rule], capsys)
    assert code == 1
    assert err == "aperiodix: error: composite inflation factor 6 unsupported\n"


def test_first_letter_cycle_as_long_as_the_alphabet(tmp_path, capsys):
    # the first letter of sigma^k(a) runs a, b, c, d, e, a: sigma^5 fixes a
    rule = _rule_file(tmp_path, {"a": "ba", "b": "cb", "c": "dc", "d": "ed", "e": "ae"})
    code, out, _ = run_cli(["trace", "--rule-file", rule], capsys)
    assert code == 0 and json.loads(out)["trace_group"] == "(1/155)Z[1/2]"
    code, out, _ = run_cli(["cohomology", "--rule-file", rule], capsys)
    assert code == 0 and json.loads(out)["H1"] == "Z^20 ⊕ Z[1/2]"


@pytest.mark.parametrize("rule", [
    {"alphabet": ["a", "b"], "images": {"a": "ab", "b": "a"}, "tiles": {"a": "x", "b": "y"}},
    {"alphabet": ["b", "c"], "images": {"b": "bc", "c": "b"}},
], ids=["tiles-x-y", "letters-b-c"])
def test_contrast_of_relabelled_fibonacci_is_fibonacci(tmp_path, capsys, rule):
    # the contrast marks the first tile in sorted order, whatever its letter
    rule_path = tmp_path / "rule.json"
    rule_path.write_text(json.dumps(rule))
    expected = run_cli(["diffract", "--family", "fibonacci", "--contrast"], capsys)
    code, out, _ = expected
    assert code == 0 and max(float(row.split(",")[1]) for row in out.splitlines()[1:]) > 1.0
    assert run_cli(["diffract", "--rule-file", str(rule_path), "--contrast"], capsys) == expected


def test_svg_emission():
    text = render_svg([([Series((0.0, 1.0), (0.0, 2.0))], "", "")])
    assert text.count("<polyline") == 1
    assert ">k</text>" in text and ">S(k)</text>" in text  # default labels
    assert render_svg([([Series((0.0, 1.0), (0.0, 2.0))], "", "")]) == text


def per_point_panel(series, y_offset, height):
    """The polylines' points of one panel, each point by the scalar formula."""
    xs_all = [x for s in series for x in s.xs]
    ys_all = [y for s in series for y in s.ys]
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    plot_w = svgplot.WIDTH - 2 * svgplot.MARGIN
    plot_h = height - 2 * svgplot.MARGIN

    def px(x):
        return svgplot.MARGIN + plot_w * (x - x0) / (x1 - x0)

    def py(y):
        return y_offset + height - svgplot.MARGIN - plot_h * (y - y0) / (y1 - y0)

    return [" ".join(f"{px(x):.6g},{py(y):.6g}" for x, y in zip(s.xs, s.ys))
            for s in series]


# finite floats of every sign and magnitude, with repeats for constant series
svg_values = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.floats(-10.0, 10.0), st.sampled_from([0.0, -0.0, 1.0, -3.5]))


@st.composite
def svg_panels(draw):
    series = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 40))
        if draw(st.booleans()):
            ys = [draw(svg_values)] * n       # a constant series
        else:
            ys = draw(st.lists(svg_values, min_size=n, max_size=n))
        xs = draw(st.lists(svg_values, min_size=n, max_size=n))
        series.append(Series(tuple(xs), tuple(ys)))
    return series


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(svg_panels(), min_size=1, max_size=2))
def test_svg_points_equal_the_per_point_formula(panels):
    try:
        expected = [p for i, series in enumerate(panels)
                    for p in per_point_panel(series, i * svgplot.HEIGHT, svgplot.HEIGHT)]
    except ZeroDivisionError:
        reject()   # a constant series at 2^53 or more: x0 + 1.0 == x0
    text = render_svg([(series, "k", "S(k)") for series in panels])
    points = [line.split('points="')[1].split('"')[0]
              for line in text.splitlines() if line.startswith("<polyline")]
    assert points == expected


def test_svg_panels_and_validation():
    with pytest.raises(ValueError):
        render_svg([([], "x", "y")])
    two = render_svg([([Series((0, 1), (0, 1))], "k", "S(k)"),
                      ([Series((0, 1), (0, 1))], "e", "N(e)")])
    assert two.count("<rect") == 3  # background + two frames


def test_diffract_svg_output(tmp_path, capsys):
    svg_path = tmp_path / "s.svg"
    code, _, _ = run_cli(["diffract", "--family", "periodic", "--order", "6",
                          "--samples", "256", "--out", str(tmp_path / "s.csv"),
                          "--svg", str(svg_path)], capsys)
    assert code == 0
    assert "<polyline" in svg_path.read_text()
