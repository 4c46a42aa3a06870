"""Sharp height bounds and point certification.

Implements the six-class lower bound for the canonical height of a
nontorsion point (keyed on the sign of a and on a mod 16), the weaker
discriminant form, and the two-sided bounds on (1/2)h(P) - hhat(P); plus
the descent-shaped point search and the sweep harness that certifies every
point it finds.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

from .arithmetic import (
    fourth_power_free_part,
    is_fourth_power_free,
    isqrt_exact,
    ord_p,
    squarefree_divisors,
)
from .curve import Curve, Point
from .errors import NotMinimal
from .heights import (
    HeightBreakdown,
    _to_minimal,
    canonical_height,
    denominator_sequence,
    nonarch_sum_identity,
)

logger = logging.getLogger(__name__)

LOG2 = math.log(2.0)

#: Residue classes of a mod 16 grouped as the bound constants group them.
GROUP_ODD = frozenset({1, 5, 7, 9, 13, 15})
GROUP_EVEN = frozenset({2, 3, 6, 8, 10, 11, 12, 14})
GROUP_FOUR = frozenset({4})

#: log(2)-coefficients of the lower-bound constant, by (sign, group).
_LANG_CONSTANTS = {
    ("pos", "g1"): Fraction(1, 2),
    ("pos", "g2"): Fraction(1, 4),
    ("pos", "g4"): Fraction(-1, 8),
    ("neg", "g1"): Fraction(9, 16),
    ("neg", "g2"): Fraction(5, 16),
    ("neg", "g4"): Fraction(-1, 16),
}


def residue_group(a: int) -> str:
    r = a % 16
    if r in GROUP_ODD:
        return "g1"
    if r in GROUP_EVEN:
        return "g2"
    if r in GROUP_FOUR:
        return "g4"
    raise NotMinimal(f"a = {a} is 0 mod 16, impossible for fourth-power-free a")


@dataclass(frozen=True)
class LangBound:
    """Lower bound (1/16)log|a| + c*log(2) for hhat of a nontorsion point."""

    a: int
    class_tag: str  # e.g. "pos-g1"
    constant: Fraction  # c, the log(2) coefficient
    bound: float


@dataclass(frozen=True)
class DiffBounds:
    """Bounds on (1/2)h(P) - hhat(P) for any rational point."""

    a: int
    lower_sqrt: float
    lower_const: float
    upper: float


@dataclass(frozen=True)
class BoundCheck:
    """One certified inequality with its margin.

    status is "pass" when margin > +error_bound, "fail" when
    margin < -error_bound, and "inconclusive" in between; exact checks
    (B2, SumIdentity, X2PSquare) only pass or fail.
    """

    theorem: str  # Lang | Corollary | Diff* | B2 | SumIdentity | X2PSquare
    bound: float
    actual: float
    margin: float
    status: str
    error_bound: float = 0.0
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _verdict(theorem, bound, actual, margin, error_bound, note="") -> BoundCheck:
    if margin > error_bound:
        status = "pass"
    elif margin < -error_bound:
        status = "fail"
    else:
        status = "inconclusive"
    return BoundCheck(theorem, bound, actual, margin, status, error_bound, note)


def _exact(theorem: str, ok: bool, bound: float = 0.0, actual: float = 0.0,
           note: str = "") -> BoundCheck:
    """A verdict decided in exact arithmetic: pass or fail, error_bound 0."""
    return BoundCheck(theorem, bound, actual, actual - bound, "pass" if ok else "fail",
                      note=note)


def lang_lower_bound(a: int) -> LangBound:
    """The sharp lower bound for hhat of a nontorsion point on a minimal model."""
    if a == 0 or not is_fourth_power_free(a):
        raise NotMinimal(f"a = {a} is not a nonzero fourth-power-free integer")
    sign = "pos" if a > 0 else "neg"
    group = residue_group(a)
    constant = _LANG_CONSTANTS[(sign, group)]
    bound = math.log(abs(a)) / 16.0 + float(constant) * LOG2
    return LangBound(a=a, class_tag=f"{sign}-{group}", constant=constant, bound=bound)


def corollary_bound(a: int) -> float:
    """(1/48) log|disc| - (1/4) log 2, on the minimal model of a."""
    a4f, _ = fourth_power_free_part(a)
    disc = abs(-64 * a4f**3)
    return math.log(disc) / 48.0 - LOG2 / 4.0


def diff_bounds(a: int) -> DiffBounds:
    """Two-sided bounds on (1/2)h - hhat; the constant lower bound is the
    better one for small |a|."""
    la = math.log(abs(a))
    return DiffBounds(
        a=a,
        lower_sqrt=-la / 4.0 - 0.5 / math.sqrt(abs(a)),
        lower_const=-la / 4.0 - 0.16,
        upper=la / 4.0 + 0.375 * LOG2,
    )


def check_b2_bounds(curve: Curve, point: Point) -> BoundCheck:
    """ord_2 of the denominator of x(2P) against its residue-class bound.

    The class bound is 4 / 2 / 0 for the three groups of a mod 16.  When
    a != 4 mod 16 or ord_2(x(P)) != 1, additionally require
    ord_2(B_2) >= ord_2(B_1) + 2.  Points where that stated hypothesis and
    the even-valuation shape it rests on classify differently are logged,
    not failed.
    """
    records = denominator_sequence(curve, point, 2)
    b1, b2 = records[0], records[1]
    group = residue_group(curve.a)
    class_bound = {"g1": 4, "g2": 2, "g4": 0}[group]
    ord2x = ord_p(point.x, 2) if point.x != 0 else None
    stated = (group != "g4") or (ord2x != 1)
    proof_shape = (group != "g4") or (ord2x is not None and ord2x % 2 == 0)
    note = f"ord2(B1)={b1.ord2_B}, ord2(B2)={b2.ord2_B}, step_required={stated}"
    if stated and not proof_shape:
        logger.warning(
            "b2 step check: stated hypothesis holds but ord_2(x) = %s is odd "
            "(a = %s, x = %s)", ord2x, curve.a, point.x,
        )
        note += "; discrepancy: stated hypothesis with odd ord_2(x)"
    ok = b2.ord2_B >= class_bound and ((not stated) or b2.ord2_B >= b1.ord2_B + 2)
    return _exact("B2", ok, float(class_bound), float(b2.ord2_B), note)


def certify_point(curve: Curve, point: Point) -> list[BoundCheck]:
    """Certify one point against every applicable bound.

    Nontorsion points get the Lang, Corollary, difference and B2 checks;
    torsion points only the difference checks (their difference is exactly
    0 or (1/4)log|a|).  A margin within the numeric error bound is reported
    inconclusive.
    """
    return _certify(curve, point)[0]


def _certify(curve: Curve, point: Point) -> tuple[list[BoundCheck], HeightBreakdown]:
    """The checks of certify_point together with the height breakdown they
    were read from."""
    bd = canonical_height(curve, point)
    err = bd.error_bound
    db = diff_bounds(curve.a)
    diff = bd.difference
    checks = [
        _verdict("DiffUpper", db.upper, diff, db.upper - diff, err),
        _verdict("DiffLowerSqrt", db.lower_sqrt, diff, diff - db.lower_sqrt, err),
        _verdict("DiffLowerConst", db.lower_const, diff, diff - db.lower_const, err),
    ]
    if bd.is_torsion:
        return checks, bd
    minimal, q, _ = _to_minimal(curve, point)
    lang = lang_lower_bound(minimal.a)
    cor = corollary_bound(curve.a)
    checks = [
        _verdict("Lang", lang.bound, bd.canonical, bd.canonical - lang.bound, err,
                 note=lang.class_tag),
        _verdict("Corollary", cor, bd.canonical, bd.canonical - cor, err),
        *checks,
        check_b2_bounds(minimal, q),
    ]
    return checks, bd


# ---------------------------------------------------------------------------
# Point search and sweep
# ---------------------------------------------------------------------------


#: squares mod 256, for cheap rejection before isqrt
_SQ_MOD = frozenset((i * i) % 256 for i in range(256))


def find_points(curve: Curve, search_bound: int) -> list[Point]:
    """Affine points found by the descent shape of a rational point.

    Every affine point with x != 0 is (b1*M^2/e^2, b1*M*N/e^3) with
    a = b1*b2, b1 squarefree, gcd(M, e) = gcd(b1, e) = 1 and
    N^2 = b1*M^4 + b2*e^4.  b1 runs over the signed squarefree divisors of
    a and M, e up to the bound, so the search is exhaustive up to the box;
    x is then in lowest terms, so no x is found twice.  Returns nontorsion
    and torsion points alike, with y >= 0, sorted by x.
    """
    a = curve.a
    found: list[Point] = []
    for d in squarefree_divisors(a):
        # for a > 0 a negative b1 makes b2 negative too, and N^2 < 0
        for b1 in (d, -d) if a < 0 else (d,):
            b2 = a // b1
            for e in range(1, search_bound + 1):
                if math.gcd(d, e) != 1:
                    continue
                b2e4 = b2 * e**4
                for m in range(1, search_bound + 1):
                    if math.gcd(m, e) != 1:
                        continue
                    n2 = b1 * m**4 + b2e4
                    if n2 < 0 or (n2 & 255) not in _SQ_MOD:
                        continue
                    n = isqrt_exact(n2)
                    if n is not None:
                        x = Fraction(b1 * m * m, e * e)
                        found.append(Point(x, Fraction(d * m * n, e**3)))
    found.sort(key=lambda p: p.x)
    return found


@dataclass(frozen=True)
class SweepRow:
    """One certified point in a sweep report."""

    a: int
    x: str
    y: str
    naive: float
    canonical: float
    difference: float
    #: the checks of certify_point, then SumIdentity and X2PSquare
    checks: tuple[BoundCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass
class SweepReport:
    """Aggregated sweep output with per-class minimum margins."""

    a_min: int
    a_max: int
    search_bound: int
    rows: list[SweepRow] = field(default_factory=list)
    torsion_rows: list[dict] = field(default_factory=list)
    curves_scanned: int = 0
    skipped: list[int] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def min_margins(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for row in self.rows:
            for check in row.checks:
                if check.theorem != "Lang":
                    continue
                tag = check.note
                if tag not in out or check.margin < out[tag]:
                    out[tag] = check.margin
        return out

    @property
    def violations(self) -> list[tuple[int, str, str]]:
        out = []
        for row in self.rows:
            for check in row.checks:
                if not check.passed:
                    out.append((row.a, row.x, check.theorem + ":" + check.status))
        return out


def sweep_curve(a: int, search_bound: int) -> tuple[list[SweepRow], list[dict]]:
    """Certify every point found on one fourth-power-free curve."""
    curve = Curve(a)
    rows: list[SweepRow] = []
    torsion_rows: list[dict] = []
    for point in find_points(curve, search_bound):
        checks, bd = _certify(curve, point)
        if bd.is_torsion:
            torsion_rows.append(
                {"a": a, "x": str(point.x), "y": str(point.y), "difference": bd.difference}
            )
            continue
        # the identity answers (False, {}) exactly when x(2P) is not a square
        identity_ok, residues = nonarch_sum_identity(curve, point)
        checks += [_exact("SumIdentity", identity_ok), _exact("X2PSquare", bool(residues))]
        rows.append(
            SweepRow(
                a=a,
                x=str(point.x),
                y=str(point.y),
                naive=bd.naive,
                canonical=bd.canonical,
                difference=bd.difference,
                checks=tuple(checks),
            )
        )
    return rows, torsion_rows


def _sweep_curve_task(args):
    a, bound = args
    try:
        return sweep_curve(a, bound), None
    except Exception as exc:  # pragma: no cover - defensive per-curve isolation
        return ([], []), f"a={a}: {exc!r}"


def sweep(
    a_min: int,
    a_max: int,
    search_bound: int = 100,
    workers: int | None = None,
) -> SweepReport:
    """Search and certify all fourth-power-free a in [a_min, a_max].

    Non-fourth-power-free a are skipped (their minimal models are already
    in range or will be swept at their own a).  Independent curve tasks may
    run across processes.  Rows need no sorting: curves come back in task
    order, which is ascending a, from pool.map and from the serial loop
    alike, and find_points returns each curve's points sorted by x; so the
    worker count never changes the output.
    """
    report = SweepReport(a_min=a_min, a_max=a_max, search_bound=search_bound)
    targets = []
    for a in range(a_min, a_max + 1):
        if a == 0:
            continue
        if not is_fourth_power_free(a):
            report.skipped.append(a)
            continue
        targets.append(a)
    report.curves_scanned = len(targets)
    tasks = [(a, search_bound) for a in targets]
    results = None
    if workers is None or workers > 1:
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_sweep_curve_task, tasks, chunksize=8))
        except OSError as exc:  # pragma: no cover
            logger.warning("process pool unavailable (%s); running serially", exc)
            results = None
    if results is None:
        results = [_sweep_curve_task(t) for t in tasks]
    for (rows, torsion_rows), failure in results:
        report.rows.extend(rows)
        report.torsion_rows.extend(torsion_rows)
        if failure:
            report.failures.append(failure)
    return report
