import json
import math
import subprocess
import sys

import numpy as np
import pytest

from aperiodix.cli import main
from aperiodix.svgplot import Series, emit_svg, render_svg


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


def test_computation_error_exit_code(tmp_path, capsys):
    code, _, err = run_cli(["generate", "--family", "thue-morse",
                            "--order", "64"], capsys)
    assert code == 1
    assert "error" in err


# b never reaches a: no power of the occurrence matrix is strictly positive
NOT_PRIMITIVE = '{"images": {"a": "aab", "b": "b"}, "alphabet": ["a", "b"]}'


@pytest.mark.parametrize("command, flag, text", [
    ("cohomology", "--rule-file", '{"alphabet": ["a", "b"]}'),
    ("trace", "--rule-file", "[1, 2]"),
    ("gaps", "--spectrum-file", "index,eigenvalue\n0 0.5\n"),
    ("bloch", "--gaps-file", '{"gaps": [{"lower": 0.1}]}'),
    ("diffract --contrast", "--samples", "0"),
    ("diffract --contrast --kmax 1", "--kmin", "3"),
    ("bloch", "--nmax", "-1"),
    ("gaps", "--q-max", "-1"),
    ("trace", "--rule-file", NOT_PRIMITIVE),
    ("cohomology", "--rule-file", NOT_PRIMITIVE),
])
def test_malformed_input_is_a_one_line_error(tmp_path, capsys, command, flag, text):
    # flags ending in -file read the text from a file, the others take it as is
    args = [*command.split(), flag, text]
    if flag.endswith("-file"):
        path = tmp_path / "input"
        path.write_text(text, encoding="utf-8")
        args[-1] = str(path)
    if flag != "--rule-file":
        args += ["--family", "periodic"]
    code, _, err = run_cli(args, capsys)
    assert code == 1
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("aperiodix: error:")


def test_generate_zero_denominator_slope_is_a_one_line_error(capsys):
    # --slope excludes --family, so the malformed-input table cannot carry it
    code, _, err = run_cli(["generate", "--slope", "1/0"], capsys)
    assert code == 1
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("aperiodix: error:")
    assert "1/0" in lines[0]


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


def test_svg_emission(tmp_path):
    path = tmp_path / "plot.svg"
    emit_svg([Series((0.0, 1.0), (0.0, 2.0))], "", "", str(path))
    text = path.read_text()
    assert text.count("<polyline") == 1
    assert ">k</text>" in text and ">S(k)</text>" in text  # default labels
    emit_svg([Series((0.0, 1.0), (0.0, 2.0))], "", "", str(tmp_path / "b.svg"))
    assert (tmp_path / "b.svg").read_text() == text


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
