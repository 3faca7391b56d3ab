"""Command-line interface: deterministic CSV/JSON/SVG emission.

Every subcommand writes byte-identical output for identical invocations:
numeric output is rounded to 15 significant digits, there are no
timestamps, and the numerical kernels use fixed reduction orders (the
--threads flag is accepted for interface compatibility; the kernels are
deterministic regardless of its value).  The argument parser is built
once per process and reused by every main call; it holds no input, and each
call parses into a fresh namespace.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .cohomology import cech_h1, trace_image
from .diffraction import contrast_spectrum, scaled_chain, structure_factor_grid
from .errors import AperiodixError
from .geometry import chain_from_rule, chain_to_csv
from .groups import nearest_element
from .report import (
    SCHEMA_VERSION,
    bloch_report,
    hull_averaged_gaps,
    report_to_dict,
    round15,
    to_json,
)
from .spectral import HoppingModel, OnsiteModel, build_chain, eigenvalues_tridiag
from .substitution import (
    FAMILY_NAMES,
    SubstitutionRule,
    builtin_rule,
    expand_word,
)
from .svgplot import Series, render_svg


REL_THRESHOLD_HELP = ("least gap width, in level spacings: rule-backed gaps measure it "
                      "against the approximant's mean level spacing, --spectrum-file "
                      "against the median spacing of the file's levels")


def _add_rule_args(parser: argparse.ArgumentParser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--family", choices=FAMILY_NAMES)
    group.add_argument("--rule-file", help="JSON file with a substitution rule")


def _add_model_args(parser: argparse.ArgumentParser):
    parser.add_argument("--model", choices=("onsite", "hopping"), default="onsite")
    parser.add_argument("--va", type=float, default=0.0)
    parser.add_argument("--vb", type=float, default=1.0)
    parser.add_argument("--eps", type=float, default=1.0)


def _read_file(path: str, parse):
    """parse(text) of a UTF-8 file; undecodable bytes, malformed JSON and a
    wrong shape are one error that names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse(fh.read())
        except (AperiodixError, ValueError) as exc:
            raise AperiodixError(f"{path}: {exc}") from exc


def _resolve_rule(args) -> SubstitutionRule:
    if args.family:
        return builtin_rule(args.family)
    return _read_file(args.rule_file, SubstitutionRule.from_json)


def _resolve_model(args):
    if args.model == "onsite":
        return OnsiteModel(args.va, args.vb)
    return HoppingModel(args.va, args.vb, args.eps)


def _write(text: str, path: str | None):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- subcommands ---------------------------------------------------------------

def cmd_generate(args) -> int:
    if args.slope:
        return _generate_cut_project(args)
    rule = _resolve_rule(args)
    seed = args.seed_letter or rule.alphabet[0]
    word = expand_word(rule, seed, args.order)
    projected = rule.project(word)
    data = {
        "schema": SCHEMA_VERSION,
        "rule": rule.name or "custom",
        "seed": seed,
        "order": args.order,
        "length": len(word),
        "word": projected,
    }
    _write(to_json(data), args.out)
    if args.chain_csv:
        chain = chain_from_rule(rule, args.order, seed=seed)
        _write(chain_to_csv(chain), args.chain_csv)
    return 0


def _generate_cut_project(args) -> int:
    from .cutproject import CPParams, check_periodicity, cp_word
    from .geometry import positions_from_word

    params = CPParams.from_text(args.slope, phason=args.phason)
    word = cp_word(params, args.n0, args.count)
    horizon = min(10000, max(64, 2 * args.count))
    periodicity = check_periodicity(params, horizon)
    data = {
        "schema": SCHEMA_VERSION,
        "slope": args.slope,
        "phason": round15(params.phason),
        "n0": args.n0,
        "length": len(word),
        "word": word,
        "periodic": periodicity["periodic"],
        "period": periodicity["period"],
    }
    _write(to_json(data), args.out)
    if args.chain_csv:
        chain = positions_from_word(word, {"a": 1.0, "b": 1.0})
        _write(chain_to_csv(chain), args.chain_csv)
    return 0


def cmd_diffract(args) -> int:
    rule = _resolve_rule(args)
    if args.contrast:
        spec = contrast_spectrum(rule, args.order, args.kmin, args.kmax, args.samples)
    else:
        chain = scaled_chain(rule, args.order)
        spec = structure_factor_grid(chain, args.kmin, args.kmax, args.samples)
    ks, ss = spec.k_values.tolist(), spec.S.tolist()
    _write("k,S\n" + "".join(map("{:.15g},{:.15g}\n".format, ks, ss)), args.out)
    if args.svg:
        series = [Series(tuple(ks), tuple(ss))]
        _write(render_svg([(series, "k", "S(k)")]), args.svg)
    return 0


def cmd_spectrum(args) -> int:
    rule = _resolve_rule(args)
    word = rule.project(expand_word(rule, rule.alphabet[0], args.order))
    spec = eigenvalues_tridiag(build_chain(word, _resolve_model(args)))
    levels = spec.eigenvalues.tolist()
    rows = map("{},{:.15g}\n".format, range(len(levels)), levels)
    _write("index,eigenvalue\n" + "".join(rows), args.out)
    return 0


def cmd_gaps(args) -> int:
    rule = _resolve_rule(args)
    family = args.family
    group = trace_image(rule)
    if args.spectrum_file:
        import numpy as np

        from .spectral import EnergySpectrum, bulk_gaps

        eigs = np.array(_read_file(args.spectrum_file, _spectrum_levels))
        gaps = bulk_gaps(EnergySpectrum(np.sort(eigs)), args.rel_threshold)
    else:
        gaps = hull_averaged_gaps(rule, args.order, _resolve_model(args),
                                  args.rel_threshold)
    payload = []
    for gap in gaps:
        element, residual = nearest_element(gap.ids_value, group,
                                            q_max=args.q_max, n_max=args.nmax)
        payload.append({
            "lower": round15(gap.lower),
            "upper": round15(gap.upper),
            "width": round15(gap.width),
            "ids": round15(gap.ids_value),
            "label": {
                "coordinates": list(element.coordinates),
                "value": round15(element.value),
                "residual": round15(residual),
                "in_group": residual <= args.tol,
            },
        })
    _write(to_json({"schema": SCHEMA_VERSION, "family": family or rule.name or "custom",
                    "group": group.canonical_name, "gaps": payload}), args.out)
    return 0


def cmd_cohomology(args) -> int:
    rule = _resolve_rule(args)
    h1 = cech_h1(rule)
    _write(to_json({
        "schema": SCHEMA_VERSION,
        "family": args.family or rule.name or "custom",
        "H1": h1.structure_name,
        "free_rank": h1.free_rank,
        "localized": [list(pair) for pair in h1.localized],
        "recognized": h1.recognized,
        "note": h1.note,
    }), args.out)
    return 0


def cmd_trace(args) -> int:
    rule = _resolve_rule(args)
    group = trace_image(rule)
    _write(to_json({
        "schema": SCHEMA_VERSION,
        "family": args.family or rule.name or "custom",
        "trace_group": group.canonical_name,
    }), args.out)
    return 0


def _spectrum_levels(text: str) -> list[float]:
    """The eigenvalue column of a spectrum CSV (a header, then rows
    index,eigenvalue), every eigenvalue finite."""
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    if any(len(r) < 2 for r in rows):
        raise AperiodixError("every row after the header must read index,eigenvalue")
    eigs = []
    for r in rows:
        try:
            eigs.append(float(r[1]))
        except ValueError:
            raise AperiodixError(f"row {','.join(r)!r} has a non-numeric eigenvalue") from None
    if not all(map(math.isfinite, eigs)):
        raise AperiodixError("every eigenvalue must be finite")
    return eigs


def _gaps_ids(text: str) -> list:
    """The "ids" of every gap of a gaps document (gaps --out)."""
    gaps_doc = json.loads(text)
    try:
        return [g["ids"] for g in gaps_doc.get("gaps", [])]
    except (KeyError, TypeError, AttributeError) as exc:
        raise AperiodixError('a gaps document is an object whose "gaps" entries each '
                             f'carry "ids" ({type(exc).__name__}: {exc})') from exc


def cmd_bloch(args) -> int:
    gaps_ids = _read_file(args.gaps_file, _gaps_ids) if args.gaps_file else None
    report = bloch_report(args.family, tol=args.tol, q_max=args.q_max,
                          n_max=args.nmax, rel_threshold=args.rel_threshold)
    data = report_to_dict(report)
    if gaps_ids is not None:
        data["gaps_file_ids"] = gaps_ids
    _write(to_json(data), args.out)
    if args.svg:
        spec = report.diffraction
        energies, ids = report.counting
        top = [Series(tuple(spec.k_values.tolist()), tuple(spec.S.tolist()))]
        bottom = [Series(tuple(energies.tolist()), tuple(ids.tolist()), color="#d62728")]
        _write(render_svg([(top, "k", "S(k)"),
                           (bottom, "e", "N(e)")]), args.svg)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reads every negative number as a value: -1e-3, -inf, and -1/2 or -1/golden.

    argparse itself takes only the -1 and -.5 shapes for negative numbers,
    so `--va -1e-3` or `--slope -1/2` would stop at a missing value.  No
    option name starts with a digit or a dot after its dash.
    """

    def _parse_optional(self, arg_string):
        if arg_string[1:2].isdigit() or arg_string[1:2] == ".":
            return None
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="aperiodix",
        description="one-dimensional aperiodic tilings: diffraction, spectra, "
                    "gap labels, cohomology invariants")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; output does not depend on it")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate",
                       help="expand a substitution word, or cut a C&P word")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--family", choices=FAMILY_NAMES)
    group.add_argument("--rule-file", help="JSON file with a substitution rule")
    group.add_argument("--slope",
                       help='cut-and-project slope: "p/q", decimal, or "1/golden"')
    p.add_argument("--order", type=int, default=10)
    p.add_argument("--seed-letter", default=None)
    p.add_argument("--phason", type=float, default=0.0,
                   help="cut offset in radians (with --slope)")
    p.add_argument("--count", type=int, default=100,
                   help="letters to generate (with --slope)")
    p.add_argument("--n0", type=int, default=0,
                   help="starting integer index (with --slope)")
    p.add_argument("--out", default=None)
    p.add_argument("--chain-csv", default=None)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("diffract", help="structure factor on a k grid")
    _add_rule_args(p)
    p.add_argument("--order", type=int, default=10)
    p.add_argument("--kmin", type=float, default=0.0)
    p.add_argument("--kmax", type=float, default=4 * math.pi)
    p.add_argument("--samples", type=int, default=2048)
    p.add_argument("--contrast", action="store_true",
                   help="species-contrast weights instead of plain atoms")
    p.add_argument("--out", default=None)
    p.add_argument("--svg", default=None)
    p.set_defaults(fn=cmd_diffract)

    p = sub.add_parser("spectrum", help="tight-binding eigenvalues")
    _add_rule_args(p)
    _add_model_args(p)
    p.add_argument("--order", type=int, default=10)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("gaps", help="spectral gaps with group labels")
    _add_rule_args(p)
    _add_model_args(p)
    p.add_argument("--order", type=int, default=10)
    p.add_argument("--rel-threshold", type=float, default=10.0, help=REL_THRESHOLD_HELP)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--q-max", type=int, default=30)
    p.add_argument("--nmax", type=int, default=10)
    p.add_argument("--spectrum-file", default=None,
                   help="reuse eigenvalues from a spectrum CSV")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_gaps)

    p = sub.add_parser("cohomology", help="Cech H^1 of the tiling space")
    _add_rule_args(p)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_cohomology)

    p = sub.add_parser("trace", help="cohomology trace image group")
    _add_rule_args(p)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("bloch", help="gap-label / trace / Bragg correspondence")
    p.add_argument("--family", choices=FAMILY_NAMES, required=True)
    p.add_argument("--rel-threshold", type=float, default=10.0, help=REL_THRESHOLD_HELP)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--q-max", type=int, default=30)
    p.add_argument("--nmax", type=int, default=10)
    p.add_argument("--gaps-file", default=None,
                   help="attach gap ids from a gaps JSON document")
    p.add_argument("--out", default=None)
    p.add_argument("--svg", default=None)
    p.set_defaults(fn=cmd_bloch)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def _check_flags(args) -> None:
    """Refuse non-finite floats, --tol < 0 and --rel-threshold <= 0 up front."""
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise AperiodixError(f"--{name.replace('_', '-')} must be finite, got {value}")
    if getattr(args, "tol", 0.0) < 0 or getattr(args, "rel_threshold", 1.0) <= 0:
        raise AperiodixError("--tol must be nonnegative and --rel-threshold positive")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_flags(args)
        return args.fn(args)
    except (AperiodixError, ValueError, OSError) as exc:
        print(f"aperiodix: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
