"""Command-line frontend: classification, heights, certification, sweeps,
extremal generation and the oracle cross-check, with machine-readable output.

Exit codes: 0 success, 2 argument/parse error or an unwritable --out path,
3 non-minimal curve under --strict-minimal, 4 point not on curve, 5 a bound
check failed, 6 a bound check was inconclusive, 7 extremal row validation
failed, 8 no rational half exists, 9 oracle disagreement, 10 factoring gave
up after its effort budget, 141 stdout was closed by its reader.

verify, extremal --certify and sweep share one rule for their checks (for
sweep, every check of every row): any "fail" exits 5, otherwise any
"inconclusive" exits 6, otherwise 0.

Note on normalisation: the canonical height reported here is one-half of
the value returned by PARI's ellheight (and by some tables); halve any
external cross-check accordingly.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import os
import stat
import sys
import time
from fractions import Fraction

from . import __version__
from .arithmetic import parse_rational
from .bounds import BoundCheck, SweepReport, _certify, sweep
from .curve import Curve, Point
from .errors import (
    AxHeightsError,
    FactorizationBudgetExceeded,
    NoRationalHalf,
    NotMinimal,
    NotOnCurve,
    RowValidationFailed,
)
from .families import FAMILIES
from .heights import MAX_DOUBLINGS, HeightBreakdown, canonical_height, limit_oracle
from .local_heights import bad_primes, classify_reduction

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_MINIMAL = 3
EXIT_NOT_ON_CURVE = 4
EXIT_BOUND_FAILED = 5
EXIT_INCONCLUSIVE = 6
EXIT_ROW_INVALID = 7
EXIT_NO_HALF = 8
EXIT_ORACLE_MISMATCH = 9
EXIT_FACTORING_BUDGET = 10
#: as a shell reports a process that SIGPIPE ended (128 + 13)
EXIT_BROKEN_PIPE = 141

#: exit code of each library error; any other AxHeightsError exits EXIT_USAGE
_ERROR_EXITS = {
    NotMinimal: EXIT_NOT_MINIMAL,
    NotOnCurve: EXIT_NOT_ON_CURVE,
    RowValidationFailed: EXIT_ROW_INVALID,
    NoRationalHalf: EXIT_NO_HALF,
    FactorizationBudgetExceeded: EXIT_FACTORING_BUDGET,
}

PARI_NOTE = (
    "canonical heights here are one-half of PARI's ellheight; halve external "
    "values before comparing"
)


def _fmt(value: float) -> float:
    """Round-trip a float through 15 significant digits for stable output."""
    return float(f"{value:.15g}")


def _check_dict(check: BoundCheck) -> dict:
    return {
        "theorem": check.theorem,
        "bound": _fmt(check.bound),
        "actual": _fmt(check.actual),
        "margin": _fmt(check.margin),
        "status": check.status,
        "pass": check.passed,
        "error_bound": _fmt(check.error_bound),
        "note": check.note,
    }


def _checks_exit(checks) -> int:
    """The one exit rule for checks: 5 on any fail, else 6 on any inconclusive."""
    statuses = {c.status for c in checks}
    if "fail" in statuses:
        return EXIT_BOUND_FAILED
    if "inconclusive" in statuses:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _rational_arg(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}")


def _load_config(path: str | None) -> dict:
    """The JSON object at path; each key must be one of _CONFIG and each
    value one that the matching flag accepts, else ValueError."""
    if not path:
        return {}
    with open(path, encoding="utf-8") as handle:
        config = json.load(handle)
    if not isinstance(config, dict):
        raise ValueError("not a JSON object")
    for key, value in config.items():
        if key not in _CONFIG:
            raise ValueError(f"unknown key {key!r}")
        _, kind, types = _CONFIG[key]
        if type(value) not in types:
            raise ValueError(f"{key} = {json.dumps(value)} is not {kind}")
    return config


def cmd_classify(args) -> int:
    curve = Curve(args.a)
    if args.strict_minimal:
        curve._require_minimal()
    if not curve.is_minimal:
        minimal, s = curve.minimalize()
        print(
            f"warning: a = {args.a} is not fourth-power-free; "
            f"classifying the minimal model a = {minimal.a} (scale s = {s})",
            file=sys.stderr,
        )
        curve = minimal
    primes = [args.prime] if args.prime is not None else bad_primes(curve)
    rows = [classify_reduction(curve, p) for p in primes]
    if args.json:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": "classify",
            "a": curve.a,
            "rows": [dataclasses.asdict(r) for r in rows],
        }
        print(json.dumps(doc, indent=2))
    else:
        for r in rows:
            print(r)
    return EXIT_OK


def _timing(started: float) -> None:
    # the computation's time goes to stderr, so identical inputs give
    # byte-identical stdout
    print(f"timing: {time.perf_counter() - started:.4f}s", file=sys.stderr)


def _term_record(term) -> dict:
    return {
        "prime": term.prime,
        "coefficient": f"{term.coefficient.numerator}/{term.coefficient.denominator}",
        "correction_tag": term.correction_tag,
        "value": _fmt(term.value),
    }


def _height_document(curve: Curve, point: Point, bd: HeightBreakdown, command: str) -> dict:
    """The --json document; only it prints the coordinates, whose decimal
    strings cost time quadratic in their digits."""
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "a": curve.a,
        "x": str(point.x),
        "y": str(point.y),
        "naive": _fmt(bd.naive),
        "canonical": _fmt(bd.canonical),
        "difference": _fmt(bd.difference),
        "error_bound": _fmt(bd.error_bound),
        "is_torsion": bd.is_torsion,
        "archimedean": _fmt(bd.archimedean.value) if bd.archimedean else None,
        "archimedean_tail": _fmt(bd.archimedean.tail_bound) if bd.archimedean else None,
        "local_terms": [_term_record(t) for t in bd.nonarch_terms],
    }


def cmd_height(args) -> int:
    started = time.perf_counter()
    curve = Curve(args.a)
    point = Point(args.x, args.y)
    bd = canonical_height(curve, point)
    _timing(started)
    if args.json:
        print(json.dumps(_height_document(curve, point, bd, "height"), indent=2))
        return EXIT_OK
    kind = " (torsion)" if bd.is_torsion else ""
    print(f"naive height      h(P)    = {_fmt(bd.naive)}")
    print(f"canonical height  hhat(P) = {_fmt(bd.canonical)}{kind}")
    print(f"difference (1/2)h - hhat  = {_fmt(bd.difference)}")
    for term in map(_term_record, bd.nonarch_terms):
        print(
            f"  lambda_{term['prime']}: {term['coefficient']} * log({term['prime']})"
            f" = {term['value']}  [{term['correction_tag']}]"
        )
    if bd.bulk_denominator_log:
        print(f"  lambda_bulk: 1/2 * log(denominator part prime to 2a)"
              f" = {_fmt(bd.bulk_denominator_log)}")
    if bd.archimedean:
        print(f"  lambda_inf: {_fmt(bd.archimedean.value)}"
              f" (tail < {_fmt(bd.archimedean.tail_bound)})")
    return EXIT_OK


def cmd_verify(args) -> int:
    started = time.perf_counter()
    curve = Curve(args.a)
    point = Point(args.x, args.y)
    checks, bd = _certify(curve, point)
    _timing(started)
    if args.json:
        doc = _height_document(curve, point, bd, "verify")
        doc["checks"] = [_check_dict(c) for c in checks]
        print(json.dumps(doc, indent=2))
    else:
        for c in checks:
            print(
                f"{c.theorem:15s} bound={_fmt(c.bound): .12g}  actual={_fmt(c.actual): .12g}"
                f"  margin={_fmt(c.margin): .3g}  {c.status.upper()}"
            )
    return _checks_exit(checks)


_SWEEP_COLUMNS = [
    "a", "x", "y", "naive", "canonical", "difference",
    "lang_bound", "lang_margin", "corollary_margin",
    "diff_upper_margin", "diff_lower_sqrt_margin", "diff_lower_const_margin",
    "b2_actual", "b2_bound", "sum_identity_ok", "x2p_square_ok", "all_pass",
]


def _sweep_row_record(row) -> dict:
    # rows are nontorsion points, so every theorem below has its check
    by_theorem = {c.theorem: c for c in row.checks}
    lang = by_theorem["Lang"]
    return {
        "a": row.a,
        "x": row.x,
        "y": row.y,
        "naive": _fmt(row.naive),
        "canonical": _fmt(row.canonical),
        "difference": _fmt(row.difference),
        "lang_bound": _fmt(lang.bound),
        "lang_margin": _fmt(lang.margin),
        "corollary_margin": _fmt(by_theorem["Corollary"].margin),
        "diff_upper_margin": _fmt(by_theorem["DiffUpper"].margin),
        "diff_lower_sqrt_margin": _fmt(by_theorem["DiffLowerSqrt"].margin),
        "diff_lower_const_margin": _fmt(by_theorem["DiffLowerConst"].margin),
        "b2_actual": int(by_theorem["B2"].actual),
        "b2_bound": int(by_theorem["B2"].bound),
        "sum_identity_ok": by_theorem["SumIdentity"].passed,
        "x2p_square_ok": by_theorem["X2PSquare"].passed,
        "all_pass": row.all_pass,
    }


def _sweep_document(report: SweepReport, violations: list, with_rows: bool) -> dict:
    """The JSON report; the stdout summary is the same without "rows"."""
    document = {
        "schema_version": SCHEMA_VERSION,
        "command": "sweep",
        "a_min": report.a_min,
        "a_max": report.a_max,
        "search_bound": report.search_bound,
        "curves_scanned": report.curves_scanned,
        "points_certified": len(report.rows),
        "torsion_points": report.torsion_points,
        "skipped_non_minimal": report.skipped,
    }
    if with_rows:
        document["rows"] = [_sweep_row_record(r) for r in report.rows]
    return document | {
        "min_lang_margin_by_class": {k: _fmt(v) for k, v in sorted(report.min_margins.items())},
        "violations": [list(v) for v in violations],
        "failures": report.failures,
    }


def _write_sweep_csv(report: SweepReport, handle) -> None:
    handle.write("# sweep report: one row per certified nontorsion point\n")
    handle.write(f"# a in [{report.a_min}, {report.a_max}], "
                 f"search bound {report.search_bound}, schema {SCHEMA_VERSION}\n")
    writer = csv.DictWriter(handle, fieldnames=_SWEEP_COLUMNS)
    writer.writeheader()
    for row in report.rows:
        writer.writerow(_sweep_row_record(row))


def cmd_sweep(args) -> int:
    if args.amin > args.amax:
        print("error: --amin must be <= --amax", file=sys.stderr)
        return EXIT_USAGE
    # opened before the sweep, so that an unwritable path costs no search, and
    # truncated only to write the report, so that a failed sweep keeps the file
    try:
        out = open(args.out, "a", newline="", encoding="utf-8") if args.out else None
    except OSError as exc:
        raise AxHeightsError(f"cannot write {args.out}: {exc.strerror or exc}") from exc
    with out or contextlib.nullcontext():
        report = sweep(args.amin, args.amax, args.search_bound, workers=args.workers)
        violations = report.violations
        if out:
            try:
                if stat.S_ISREG(os.fstat(out.fileno()).st_mode):  # not a pipe or a device
                    out.truncate(0)
                if args.out.endswith(".csv"):
                    _write_sweep_csv(report, out)
                else:
                    json.dump(_sweep_document(report, violations, True), out, indent=2)
                    out.write("\n")
                out.close()  # inside the guard: the last flush can fail too
            except OSError as exc:
                raise AxHeightsError(f"cannot write {args.out}: {exc.strerror or exc}") from exc
            print(f"wrote {len(report.rows)} rows to {args.out}")
        else:
            print(json.dumps(_sweep_document(report, violations, False), indent=2))
    if violations:
        print(f"{len(violations)} bound violations!", file=sys.stderr)
    return _checks_exit(c for row in report.rows for c in row.checks)


def _extremal_candidate(family: str, param: int):
    if family not in FAMILIES:
        raise AxHeightsError(f"unknown family {family!r}")
    return FAMILIES[family](param)


def cmd_extremal(args) -> int:
    candidate = _extremal_candidate(args.family, args.param)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "extremal",
        "family": candidate.family,
        "parameter": candidate.parameter,
        "a": candidate.a,
        "x": str(candidate.point.x),
        "y": str(candidate.point.y),
        "target_x2p": str(candidate.target_x2p) if candidate.target_x2p else None,
        "validated": candidate.validated,
    }
    checks = []
    if args.certify:
        checks, bd = _certify(Curve(candidate.a), candidate.point)
        doc["checks"] = [_check_dict(c) for c in checks]
        doc["canonical"] = _fmt(bd.canonical)
        doc["difference"] = _fmt(bd.difference)
    print(json.dumps(doc, indent=2))
    return _checks_exit(checks)


def cmd_oracle(args) -> int:
    curve = Curve(args.a)
    point = Point(args.x, args.y)
    bd = canonical_height(curve, point)
    oracle = limit_oracle(curve, point, args.depth)
    gap = abs(bd.canonical - oracle)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "oracle",
        "a": curve.a,
        "x": str(point.x),
        "y": str(point.y),
        "decomposition": _fmt(bd.canonical),
        "limit_definition": _fmt(oracle),
        "difference": _fmt(gap),
        "depth": args.depth,
        "tolerance": args.tolerance,
    }
    print(json.dumps(doc, indent=2))
    return EXIT_OK if gap < args.tolerance else EXIT_ORACLE_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="axheights",
        description=(
            "Exact canonical heights, reduction types and sharp height-bound "
            "certification for the curves y^2 = x^3 + a*x over Q. "
            f"Note: {PARI_NOTE}."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--config", help="JSON file with option defaults")
    sub = parser.add_subparsers(dest="command", required=True)
    # options several commands share, each declared once: --a in curve_args,
    # and point_args adds --x and --y to it
    curve_args = argparse.ArgumentParser(add_help=False)
    curve_args.add_argument("--a", type=int, required=True)
    point_args = argparse.ArgumentParser(add_help=False, parents=[curve_args])
    point_args.add_argument("--x", type=_rational_arg, required=True)
    point_args.add_argument("--y", type=_rational_arg, required=True)

    p = sub.add_parser("classify", parents=[curve_args],
                       help="Kodaira symbol and Tamagawa index at bad primes")
    p.add_argument("--prime", type=int)
    p.add_argument("--strict-minimal", action="store_true",
                   help="fail instead of auto-minimalizing a non-minimal a")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("height", parents=[point_args],
                       help="naive/canonical height with local breakdown")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_height)

    p = sub.add_parser("verify", parents=[point_args],
                       help="certify a point against every height bound")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="search curves in a range and certify every point")
    p.add_argument("--amin", type=int, required=True)
    p.add_argument("--amax", type=int, required=True)
    p.add_argument("--search-bound", type=int, default=None)
    p.add_argument("--out", help="output path (.csv or .json)")
    p.add_argument("--workers", type=int, default=None,
                   help="most processes to use, at most one per 8-curve chunk; 8 "
                        "curves or fewer run in-process (default: available parallelism)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("extremal", help="generate a near-extremal family candidate")
    p.add_argument("--family", required=True,
                   help="lang-pos-<1..15>, lang-neg-<1..15>, diff-lower-pos, "
                        "diff-lower-neg or diff-upper")
    p.add_argument("--param", type=int, required=True)
    p.add_argument("--certify", action="store_true")
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("oracle", parents=[point_args],
                       help="decomposition vs the limit-definition oracle")
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--tolerance", type=float, default=None)
    p.set_defaults(func=cmd_oracle)

    return parser


#: each config key: its default, and the JSON values it takes, as its flag's
#: type would take them (a JSON true is no integer and "6" is no number)
_CONFIG = {
    "depth": (6, "an integer", (int,)),
    "tolerance": (1e-5, "a number", (int, float)),
    "search_bound": (100, "an integer", (int,)),
    "workers": (None, "an integer or null", (int, type(None))),
}


def _join_signed_values(argv: list[str]) -> list[str]:
    """Write "--x -7/8" as "--x=-7/8": argparse reads a value that starts
    with "-" as an option unless it looks like -N or -N.M."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--x", "--y") and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    # lift the int/str digit limit (Python >= 3.10.7) for this run only, so
    # that coordinates of any size parse and print
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _run(argv: list[str] | None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_signed_values(sys.argv[1:] if argv is None else argv))
    try:
        config = _load_config(args.config)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config: {exc}")
    except ValueError as exc:
        parser.error(f"invalid config: {exc}")
    for key, (default, *_) in _CONFIG.items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, config.get(key, default))
    if getattr(args, "depth", None) is not None and not (1 <= args.depth <= MAX_DOUBLINGS):
        parser.error(f"--depth must be in 1..{MAX_DOUBLINGS}")
    tolerance = getattr(args, "tolerance", None)
    if tolerance is not None and not (0 < tolerance < math.inf):  # NaN fails too
        parser.error("--tolerance must be a positive finite number")
    for key in ("search_bound", "workers"):
        if getattr(args, key, None) is not None and getattr(args, key) < 1:
            parser.error(f"--{key.replace('_', '-')} must be at least 1")
    try:
        code = args.func(args)
        if sys.stdout is not None:  # None when the process started without fd 1
            sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except AxHeightsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _ERROR_EXITS.get(type(exc), EXIT_USAGE)
    except BrokenPipeError:
        # the reader has gone; send what is still buffered to devnull so the
        # flush at interpreter exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
