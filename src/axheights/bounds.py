"""Sharp height bounds and point certification.

Implements the six-class lower bound for the canonical height of a
nontorsion point (keyed on the sign of a and on a mod 16), the weaker
discriminant form, and the two-sided bounds on (1/2)h(P) - hhat(P); plus
the descent-shaped point search and the sweep harness that certifies every
point it finds.

The public checks (check_b2_bounds, certify_point) check their point; the
private cores (_check_b2 and the heights cores it and the sweep call) trust
their caller.  So certify_point runs Curve.contains once, and the sweep
once per point find_points returns.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction

from .arithmetic import (
    factorize,
    fourth_power_free_part,
    is_fourth_power_free,
    isqrt_exact,
    ord_int,
    squarefree_divisors,
)
from .curve import Curve, Point
from .errors import AxHeightsError, NotMinimal, ZeroInput
from .heights import (
    HeightBreakdown,
    _denominator_sequence,
    _height_on_minimal,
    _sum_identity,
)

LOG2 = math.log(2.0)

#: The paper's classes of a mod 16, one row per group: the residues, the
#: log(2)-coefficient c of the Lang bound for a > 0 and for a < 0, and the B2
#: bound on ord_2 of the denominator of x(2P).  No group holds 0: a
#: fourth-power-free a is never 0 mod 16.
_CLASSES = {
    "g1": ((1, 5, 7, 9, 13, 15), Fraction(1, 2), Fraction(9, 16), 4),
    "g2": ((2, 3, 6, 8, 10, 11, 12, 14), Fraction(1, 4), Fraction(5, 16), 2),
    "g4": ((4,), Fraction(-1, 8), Fraction(-1, 16), 0),
}


def residue_group(a: int) -> str:
    """The group of _CLASSES that holds a mod 16."""
    for group, (residues, *_) in _CLASSES.items():
        if a % 16 in residues:
            return group
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


@dataclass(frozen=True, slots=True)
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

    def __reduce__(self):
        # pickle by value: the constructor call is cheaper to load than the
        # per-field object.__setattr__ of a frozen, slotted dataclass
        return BoundCheck, (self.theorem, self.bound, self.actual, self.margin,
                            self.status, self.error_bound, self.note)


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


#: curves whose bounds the three per-a caches below keep; _certify reads them
#: for each of a curve's points, and a sweep visits the curves in turn
_PER_A_CACHE = 256


@functools.lru_cache(maxsize=_PER_A_CACHE)
def lang_lower_bound(a: int) -> LangBound:
    """The sharp lower bound for hhat of a nontorsion point on a minimal model."""
    if a == 0 or not is_fourth_power_free(a):
        raise NotMinimal(f"a = {a} is not a nonzero fourth-power-free integer")
    group = residue_group(a)
    _, c_pos, c_neg, _ = _CLASSES[group]
    sign, constant = ("pos", c_pos) if a > 0 else ("neg", c_neg)
    bound = math.log(abs(a)) / 16.0 + float(constant) * LOG2
    return LangBound(a=a, class_tag=f"{sign}-{group}", constant=constant, bound=bound)


@functools.lru_cache(maxsize=_PER_A_CACHE)
def corollary_bound(a: int) -> float:
    """(1/48) log|disc| - (1/4) log 2, on the minimal model of a."""
    a4f, _ = fourth_power_free_part(a)
    disc = abs(-64 * a4f**3)
    return math.log(disc) / 48.0 - LOG2 / 4.0


@functools.lru_cache(maxsize=_PER_A_CACHE)
def diff_bounds(a: int) -> DiffBounds:
    """Two-sided bounds on (1/2)h - hhat; the constant lower bound is the
    better one for small |a|."""
    if a == 0:
        raise ZeroInput("a must be nonzero (a = 0 is singular for heights)")
    la = math.log(abs(a))
    return DiffBounds(
        a=a,
        lower_sqrt=-la / 4.0 - 0.5 / math.sqrt(abs(a)),
        lower_const=-la / 4.0 - 0.16,
        upper=la / 4.0 + 0.375 * LOG2,
    )


def check_b2_bounds(curve: Curve, point: Point) -> BoundCheck:
    """ord_2 of the denominator of x(2P) against its residue-class bound.

    The class bound is the B2 entry of the group of a in _CLASSES.  When
    a != 4 mod 16 or ord_2(x(P)) != 1, additionally require
    ord_2(B_2) >= ord_2(B_1) + 2.  For a = 4 mod 16 the step rests on an
    even ord_2(x), and ord_2(x) is 1 or even: with x = b1 M^2/e^2 as in
    find_points, an even b1 makes e odd and ord_2(b2) = 1, hence M odd.
    x = 0 is torsion and raises before ord_2(x) is read.
    """
    curve._require_minimal()
    curve._require_nontorsion(point)
    return _check_b2(curve, point)


def _check_b2(curve: Curve, point: Point) -> BoundCheck:
    """check_b2_bounds of a nontorsion point on a minimal model, both
    checked by the caller."""
    b1, b2 = _denominator_sequence(curve, point, 2)
    group = residue_group(curve.a)
    *_, class_bound = _CLASSES[group]
    stated = group != "g4" or ord_int(point.x.numerator, 2) != 1  # ord_2(x) = 1 iff 2 || num
    note = f"ord2(B1)={b1.ord2_B}, ord2(B2)={b2.ord2_B}, step_required={stated}"
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
    bd, minimal, q = _height_on_minimal(curve, point)
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
    lang = lang_lower_bound(minimal.a)
    cor = corollary_bound(curve.a)
    checks = [
        _verdict("Lang", lang.bound, bd.canonical, bd.canonical - lang.bound, err,
                 note=lang.class_tag),
        _verdict("Corollary", cor, bd.canonical, bd.canonical - cor, err),
        *checks,
        _check_b2(minimal, q),
    ]
    return checks, bd


# ---------------------------------------------------------------------------
# Point search and sweep
# ---------------------------------------------------------------------------


#: moduli of the residue sieve in find_points; 256 comes first, being read
#: once per group of rows e (see _sieve_tables)
_SIEVE_MODULI = (256, 9, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class _ResidueMasks(dict):
    """The residue sieve of one modulus q at one search bound, memoised.

    Key (b1 mod q)*q + r, for r = b2*e^4 mod q, maps to the bitmask of the
    M in [1, bound] that make b1*M^4 + r a square mod q.  The key alone
    fixes the mask, so every class pair and every curve share one entry,
    built on first use; the memo holds at most q^2 entries.  Two threads
    that miss the same key build the same mask, so no lock is needed.
    """

    def __init__(self, q: int, search_bound: int):
        super().__init__()
        self.q = q
        self.squares = frozenset(i * i % q for i in range(q))
        # the M in [1, bound] by their class f = M^4 mod q
        classes: dict[int, int] = {}
        for m in range(1, search_bound + 1):
            f = pow(m, 4, q)
            classes[f] = classes.get(f, 0) | 1 << m
        self.classes = tuple(classes.items())

    def __missing__(self, key: int) -> int:
        q, squares = self.q, self.squares
        b1, r = divmod(key, q)
        mask = 0
        for f, class_mask in self.classes:
            if (b1 * f + r) % q in squares:
                mask |= class_mask
        self[key] = mask
        return mask


@functools.lru_cache(maxsize=4)
def _sieve_tables(search_bound: int):
    """What find_points sieves with at one bound, bit M standing for M in
    [1, search_bound]:

    - coprime[e], the M coprime to e: all M but the multiples of each
      prime p | e;
    - the rows e grouped by e^4 mod 256, as (e^4 mod 256, ((e, e^4), ...))
      pairs;
    - one _ResidueMasks memo per modulus of _SIEVE_MODULI, 256 first.

    The memos fill as searches run and are shared by every curve searched
    at this bound; each holds at most q^2 entries.
    """
    ms = range(1, search_bound + 1)
    full = sum(1 << m for m in ms)
    coprime = [0] + [full] * search_bound
    for p in ms[1:]:
        if coprime[p] != full:  # a smaller prime divides p
            continue
        multiples = sum(1 << m for m in range(p, search_bound + 1, p))
        for e in range(p, search_bound + 1, p):
            coprime[e] &= ~multiples
    groups: dict[int, list[tuple[int, int]]] = {}
    for e in ms:
        groups.setdefault(pow(e, 4, 256), []).append((e, e**4))
    sieves = tuple(_ResidueMasks(q, search_bound) for q in _SIEVE_MODULI)
    return coprime, tuple((g, tuple(es)) for g, es in groups.items()), sieves


def _is_residue(c: int, k: int, p: int) -> bool:
    """Whether c, prime to the odd prime p, is a k-th power mod p."""
    return pow(c, (p - 1) // math.gcd(k, p - 1), p) == 1


def _soluble_at_odd(b1: int, b2: int, p: int, k: int) -> bool:
    """Whether N^2 = b1 M^4 + b2 e^4 has a point over Q_p with M, e coprime
    p-adic integers, for an odd prime p with k = ord_p(b1 b2) <= 3.

    b1 is squarefree, so alpha = ord_p b1 <= 1 and beta = ord_p b2 = k - alpha;
    u1, u2 are the unit parts.  A unit square mod p lifts by Hensel.
    """
    alpha = int(b1 % p == 0)
    beta = k - alpha
    u1, u2 = b1 // p**alpha, b2 // p**beta
    if alpha == 0:
        # p !| M: N^2 = u1 M^4 mod p.  p | M, so e is a unit: ord_p of the
        # right side is beta, which must be even, so beta = 2 and u2 a square
        return _is_residue(u1, 2, p) or (beta == 2 and _is_residue(u2, 2, p))
    if beta == 1:
        # p | N, and then p divides neither M nor e: u1 M^4 = -u2 e^4 mod p
        return _is_residue(-u2 * pow(u1, -1, p), 4, p)
    # beta = 0: p | e would leave ord_p of the right side 1, so N^2 = u2 e^4
    # mod p.  beta = 2: p | N forces p | M, and then N^2/p^2 = u2 e^4 mod p
    return _is_residue(u2, 2, p)


#: The squares mod 256, and M^4 mod 256 for M odd and for M even.
_SQUARES_256 = frozenset(i * i % 256 for i in range(128))
_ODD_FOURTHS_256, _EVEN_FOURTHS_256 = range(1, 256, 16), (0, 16)


@functools.lru_cache(maxsize=None)  # 16 values of r1 times 48 of r2 at most
def _soluble_mod_256(r1: int, r2: int) -> bool:
    """Whether N^2 = r1 M^4 + r2 e^4 mod 256 has a solution with M or e odd."""
    odd, even = _ODD_FOURTHS_256, _EVEN_FOURTHS_256
    return any(
        (r1 * f + r2 * g) % 256 in _SQUARES_256
        for fs, gs in ((odd, odd), (odd, even), (even, odd))
        for f in fs
        for g in gs
    )


def _soluble_at_2(b1: int, b2: int) -> bool:
    """A necessary condition for a point over Q_2 with M, e coprime: a
    solution mod 256 with M or e odd.

    Odd fourth powers are the units 1 mod 16, so b M^4 mod 256 ranges over
    b's class mod 2^(ord_2 b + 4) (b & -b is 2^(ord_2 b)); those classes,
    capped at 256, decide the test and key its memo.
    """
    return _soluble_mod_256(b1 % min(16 * (b1 & -b1), 256), b2 % min(16 * (b2 & -b2), 256))


def _locally_soluble(a: int, b1: int) -> bool:
    """False only when the descent quartic N^2 = b1 M^4 + (a/b1) e^4 has no
    point over Q_p for some p | 2a, so no rational point either.

    The odd primes come first, each by the closed forms of _soluble_at_odd;
    one with ord_p a >= 4 (a not fourth-power-free) is not tested.  Then 2.
    """
    b2 = a // b1
    for p, k in factorize(a).items():
        if p > 2 and k <= 3 and not _soluble_at_odd(b1, b2, p, k):
            return False
    return _soluble_at_2(b1, b2)


def find_points(curve: Curve, search_bound: int) -> list[Point]:
    """Affine points found by the descent shape of a rational point.

    Every affine point with x != 0 is (b1*M^2/e^2, |b1|*M*N/e^3) with
    a = b1*b2, b1 squarefree, gcd(M, e) = gcd(b1, e) = 1 and
    N^2 = b1*M^4 + b2*e^4.  b1 runs over the signed squarefree divisors of
    a and M, e up to the bound, so the search is exhaustive up to the box.
    x is then in lowest terms, so its class b1 is the squarefree part of
    its numerator: each x belongs to one class and is found once.  Returns
    nontorsion and torsion points alike, with y >= 0, sorted by x.

    The classes b1 and b2 = a/b1 hold P and P + (0, 0), as x(P + (0, 0)) =
    a/x(P) (the descent map sends (0, 0) to the class of a): a solution
    (M, e, N) of the b1 quartic is the solution (e, M, N) of the b2 quartic.
    So when b2 is squarefree too and differs from b1, the pair {b1, b2} is
    searched once, from the class met first, and each root gives
    (b1*M^2/e^2, |b1|*M*N/e^3) when gcd(b1, e) = 1 and
    (b2*e^2/M^2, |b2|*e*N/M^3) when gcd(b2, M) = 1.  The pairs and the
    classes left alone partition the classes, so no x is found twice.

    A quartic with no point over Q_p for some p | 2a is skipped whole
    (_locally_soluble): a rational point is a point over every Q_p, so no
    point is lost.  The test is the same for both classes of a pair, being
    the same equation, so it runs once per pair.  For a fourth-power-free a
    the classes b1 that remain form a 2-isogeny Selmer group (Silverman,
    AEC, Prop. X.4.9; Cremona, Algorithms for Modular Elliptic Curves,
    section 3.6).

    For each (b1, e) the candidate M form a bitmask over [1, bound], cut
    before any square root is taken:
    - to the M coprime to e;
    - for each modulus q of _SIEVE_MODULI, to the M whose class of M^4
      makes b1*M^4 + b2*e^4 a square mod q (ratpoints' residue sieve).
    The mod-256 mask depends on e only through e^4 mod 256, so it is read
    once per group of rows e with one value of e^4 mod 256, and a group
    whose mask is 0 is skipped whole.  The masks come from the memos of
    _sieve_tables, shared by all classes and curves searched at the bound.
    Only the M that survive reach isqrt_exact, which rejects a negative
    value before it takes a root; N = 0 (the points (+-k, 0) on a = -k^2)
    is a square like any other.
    """
    a = curve.a
    coprime, groups, (two_adic, *odd) = _sieve_tables(search_bound)
    # for a > 0 a negative b1 makes b2 negative too, and N^2 < 0
    classes = [b for d in squarefree_divisors(a) for b in ((d, -d) if a < 0 else (d,))]
    searched: set[int] = set()
    found: list[Point] = []
    for b1 in classes:
        b2 = a // b1
        if b2 in searched:  # met first, b2 searched the pair or failed the local test
            continue
        searched.add(b1)
        if not _locally_soluble(a, b1):
            continue
        d1, d2 = abs(b1), abs(b2)
        # a squarefree b2 is a class too: this pass finds its points as well
        paired = b2 != b1 and b2 in classes
        key256 = b1 % 256 * 256
        keyed = [(memo, memo.q, b1 % memo.q * memo.q) for memo in odd]
        for g, es in groups:
            live = two_adic[key256 + b2 * g % 256]
            if not live:
                continue
            for e, e4 in es:
                own = math.gcd(d1, e) == 1
                if not (own or paired):
                    continue
                b2e4 = b2 * e4
                mask = coprime[e] & live
                for memo, q, key in keyed:
                    if not mask:
                        break
                    mask &= memo[key + b2e4 % q]
                while mask:
                    low = mask & -mask
                    mask ^= low
                    m = low.bit_length() - 1
                    n = isqrt_exact(b1 * m**4 + b2e4)
                    if n is None:
                        continue
                    if own:
                        found.append(Point(Fraction(b1 * m * m, e * e), Fraction(d1 * m * n, e**3)))
                    if paired and math.gcd(d2, m) == 1:
                        found.append(Point(Fraction(b2 * e * e, m * m), Fraction(d2 * e * n, m**3)))
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
    torsion_points: int = 0
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


def sweep_curve(a: int, search_bound: int) -> tuple[list[SweepRow], int]:
    """Certify every point found on one fourth-power-free curve: the rows
    of its nontorsion points, and how many torsion points it found.

    Each point is checked once, by _certify; the sum identity runs on the
    x(P) that check accepted."""
    curve = Curve(a)
    curve._require_minimal()
    rows: list[SweepRow] = []
    torsion = 0
    for point in find_points(curve, search_bound):
        checks, bd = _certify(curve, point)
        if bd.is_torsion:
            torsion += 1
            continue
        # the identity answers (False, {}) exactly when x(2P) is not a square
        identity_ok, residues = _sum_identity(curve, point.x.numerator, point.x.denominator)
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
    return rows, torsion


#: curves per pool task; a worker takes whole chunks, so more workers than chunks idle
_CHUNK = 8


def _sweep_curve_task(args):
    a, bound = args
    try:
        return sweep_curve(a, bound), None
    except Exception as exc:  # defensive per-curve isolation
        return ([], 0), f"a={a}: {exc!r}"


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

    The process count is workers (None: the pool's own default, the CPUs
    this process may use) capped at the number of chunks of _CHUNK curves;
    when that count is 1 the sweep runs in-process.
    """
    for name, value in (("search_bound", search_bound), ("workers", workers)):
        if value is not None and value < 1:
            raise AxHeightsError(f"{name} must be at least 1, got {value}")
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
    if workers is None:
        workers = getattr(os, "process_cpu_count", os.cpu_count)() or 1
    workers = min(workers, -(-len(tasks) // _CHUNK))
    results = None
    if workers > 1:
        # the pool's modules and logging load here, not at import: a process
        # that starts no pool pays for neither
        from concurrent.futures import ProcessPoolExecutor

        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_sweep_curve_task, tasks, chunksize=_CHUNK))
        except OSError as exc:
            import logging

            logging.getLogger(__name__).warning(
                "process pool unavailable (%s); running serially", exc)
    if results is None:
        results = [_sweep_curve_task(t) for t in tasks]
    for (rows, torsion), failure in results:
        report.rows.extend(rows)
        report.torsion_points += torsion
        if failure:
            report.failures.append(failure)
    return report
