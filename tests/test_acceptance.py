"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines interleaved with the pytest output.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from axheights.arithmetic import is_fourth_power_free
from axheights.curve import Curve, Point, affine
from axheights.errors import NoRationalHalf, RowValidationFailed
from axheights.families import family_diff, family_lang_neg, family_lang_pos
from axheights.heights import canonical_height, limit_oracle
from axheights.local_heights import classify_reduction, z_value

LOG2 = math.log(2.0)


def report(number, ok, detail=""):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_oracle_equivalence():
    """Decomposition vs limit definition at fixed depths and tolerances."""
    cases = [(3, (1, 2)), (-2, (-1, 1)), (56628, (198, 4356))]
    gaps6, times = [], []
    for a, pt in cases:
        curve, p = Curve(a), affine(*pt)
        started = time.perf_counter()
        bd = canonical_height(curve, p)
        gaps6.append(abs(bd.canonical - limit_oracle(curve, p, 6)))
        times.append(time.perf_counter() - started)
    gaps8 = []
    for a, pt in cases[:2]:
        curve, p = Curve(a), affine(*pt)
        started = time.perf_counter()
        bd = canonical_height(curve, p)
        gaps8.append(abs(bd.canonical - limit_oracle(curve, p, 8)))
        times.append(time.perf_counter() - started)
    ok6 = all(g < 1e-5 for g in gaps6)
    ok8 = all(g < 1e-8 for g in gaps8)
    ok_time = all(t < 1.0 for t in times)
    detail = (
        f"depth-6 gaps {[f'{g:.2e}' for g in gaps6]} (< 1e-5: {ok6}); "
        f"depth-8 gaps {[f'{g:.2e}' for g in gaps8]} (< 1e-8: {ok8}); "
        f"max time {max(times):.3f}s (< 1s: {ok_time})"
    )
    report(1, ok6 and ok8 and ok_time, detail)
    assert ok6 and ok8 and ok_time, (
        "these tolerances are unattainable for the plain limit oracle: its "
        "truncation error is exactly |(1/2)h - hhat|(2^d P) / 4^d, and the "
        "height difference at the doubled points is of order 0.1-2 here, not "
        "~0; see 'Suite status' in README.md. " + detail
    )


def test_criterion_2_lower_bound_sweep(acceptance_sweep):
    report_obj = acceptance_sweep
    lang_failures = [
        (r.a, r.x)
        for r in report_obj.rows
        for c in r.checks
        if c.theorem == "Lang" and not c.passed
    ]
    ok = (
        not lang_failures
        and not report_obj.failures
        and len(report_obj.rows) > 100
        and report_obj.duration_seconds < 600
    )
    report(
        2,
        ok,
        f"{len(report_obj.rows)} points on {report_obj.curves_scanned} curves, "
        f"{len(lang_failures)} lower-bound violations, "
        f"{report_obj.duration_seconds:.0f}s",
    )
    assert ok


def test_criterion_3_difference_sweep(acceptance_sweep):
    diff_failures = [
        (r.a, r.x, c.theorem)
        for r in acceptance_sweep.rows
        for c in r.checks
        if c.theorem.startswith("Diff") and not c.passed
    ]
    # torsion points on every curve in range: difference exactly 0 or (1/4)log|a|
    torsion_bad = []
    for a in range(-200, 201):
        if a == 0 or not is_fourth_power_free(a):
            continue
        curve = Curve(a)
        for t in curve.torsion_subgroup().points:
            diff = canonical_height(curve, t).difference
            allowed = (0.0, math.log(abs(a)) / 4.0)
            if min(abs(diff - v) for v in allowed) > 1e-9:
                torsion_bad.append((a, str(t.x), diff))
    ok = not diff_failures and not torsion_bad
    report(
        3,
        ok,
        f"{len(diff_failures)} difference-bound violations, "
        f"{len(torsion_bad)} torsion anomalies",
    )
    assert ok


def test_criterion_4_upper_constant_sharpness():
    cand = family_diff("upper", 1000)
    bd = canonical_height(Curve(cand.a), cand.point)
    constant = bd.difference - 0.25 * math.log(cand.a)
    gap = abs(constant - 0.259930)
    ok = gap < 1e-4
    report(4, ok, f"a1=1000 constant {constant:.8f}, |delta| = {gap:.2e} (< 1e-4)")
    assert ok
    # monotone approach from below toward (3/8) log 2
    prev = -math.inf
    for a1 in (10, 100, 1000):
        c = family_diff("upper", a1)
        v = canonical_height(Curve(c.a), c.point).difference - 0.25 * math.log(c.a)
        assert prev < v < 0.375 * LOG2
        prev = v


_GOLDEN_ODD = [(5, 5, "III", 2), (18, 3, "I0*", 4), (9, 3, "I0*", 2), (27, 3, "III*", 2)]
_GOLDEN_TWO = [
    (1, "II", 1), (3, "III", 2), (2, "III", 2), (12, "I2*", 2),
    (28, "I2*", 4), (20, "I3*", 2), (52, "I3*", 4), (8, "III*", 2),
]


def test_criterion_5_kodaira_golden_table():
    bad = []
    for a, p, kodaira, tamagawa in _GOLDEN_ODD:
        r = classify_reduction(Curve(a), p)
        if (r.kodaira, r.tamagawa) != (kodaira, tamagawa):
            bad.append((a, p, r.kodaira, r.tamagawa))
    for a, kodaira, tamagawa in _GOLDEN_TWO:
        r = classify_reduction(Curve(a), 2)
        if (r.kodaira, r.tamagawa) != (kodaira, tamagawa):
            bad.append((a, 2, r.kodaira, r.tamagawa))
    ok = not bad
    report(5, ok, f"{12 - len(bad)}/12 golden rows match" + (f"; bad: {bad}" if bad else ""))
    assert ok


def _status(row, theorem):
    """The status of the row's one check of this theorem."""
    (check,) = [c for c in row.checks if c.theorem == theorem]
    return check.status


def test_criterion_6_sum_formula_identity(acceptance_sweep):
    bad = [(r.a, r.x) for r in acceptance_sweep.rows if _status(r, "SumIdentity") != "pass"]
    ok = not bad
    report(6, ok, f"exact doubled-point sum identity on {len(acceptance_sweep.rows)} "
                  f"points, {len(bad)} residues")
    assert ok


def test_criterion_7_denominator_suite(acceptance_sweep):
    not_square = [(r.a, r.x) for r in acceptance_sweep.rows if _status(r, "X2PSquare") != "pass"]
    b2_bad, discrepancies = [], []
    for r in acceptance_sweep.rows:
        for c in r.checks:
            if c.theorem != "B2":
                continue
            if not c.passed:
                b2_bad.append((r.a, r.x, c.note))
            if "discrepancy" in c.note:
                discrepancies.append((r.a, r.x, c.note))
    ok = not not_square and not b2_bad and not discrepancies
    report(
        7,
        ok,
        f"x(2P) square: {len(acceptance_sweep.rows) - len(not_square)}"
        f"/{len(acceptance_sweep.rows)}; b2 failures: {len(b2_bad)}; "
        f"logged discrepancies: {len(discrepancies)}",
    )
    assert ok


def test_criterion_8_z_range_invariants():
    rng = random.Random(20240817)
    bad = 0
    for _ in range(1000):
        a = -rng.randint(2, 10**6)
        root = math.isqrt(-a)
        x = Fraction(root + 1) + Fraction(rng.randint(0, 10**6), rng.randint(1, 1000))
        z = z_value(Curve(a), Point(x, Fraction(0)))
        if not (1.0 < z < 4.0):
            bad += 1
    for _ in range(1000):
        a = rng.randint(1, 10**6)
        x = Fraction(rng.randint(0, 10**9), rng.randint(1, 10**4))
        z = z_value(Curve(a), Point(x, Fraction(0)))
        if not (0.5 - 1e-9 <= z <= 1.0 + 1e-9):
            bad += 1
    ok = bad == 0
    report(8, ok, f"2000 sampled points, {bad} outside the stated z ranges")
    assert ok


def test_criterion_9_extremal_validation():
    problems = []
    # difference families are exact identities for every a1 up to 10^4
    for a1 in range(1, 10**4 + 1):
        for kind in ("lower_pos", "lower_neg", "upper"):
            cand = family_diff(kind, a1)
            if not Curve(cand.a).contains(cand.point):
                problems.append((kind, a1))
    # recurrence family reproduces the residue-3 values with halving
    cand = family_lang_neg(3, 0)
    if cand.a != -6003725 or cand.point.x != 5915:
        problems.append(("lang-neg-3", 0))
    # margins decrease along the residue-4 polynomial family (against the
    # class formula: a1 = 10 gives a non-fourth-power-free a)
    margins = []
    for a1 in (1, 10, 100):
        c = family_lang_pos(4, a1)
        hhat = canonical_height(Curve(c.a), c.point).canonical
        margins.append(hhat - (math.log(c.a) / 16 - LOG2 / 8))
    if not (margins[0] > margins[1] > margins[2] > 0):
        problems.append(("lang-pos-4 margins", margins))
    # rows that fail validation raise rather than return bogus points
    for residue in (1, 11):
        try:
            family_lang_pos(residue, 1)
            problems.append((f"lang-pos-{residue}", "no error raised"))
        except RowValidationFailed:
            pass
    try:
        family_lang_neg(4, 3)
        problems.append(("lang-neg-4 n=3", "no error raised"))
    except NoRationalHalf:
        pass
    ok = not problems
    report(9, ok, f"{len(problems)} problems" + (f": {problems[:4]}" if problems else ""))
    assert ok
