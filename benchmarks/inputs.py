"""Seeded inputs for the benchmark workloads.

Everything here is plain Python with no call into axheights: the program
under test receives only what these functions generate.  The same seed
always gives the same inputs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

#: Seed 0 sweeps the acceptance window [-200, 200]; other seeds shift a
#: window of the same width by at most this much, which keeps the per-point
#: cost mix close to the acceptance sweep.
SWEEP_HALF_WIDTH = 200
SWEEP_MAX_SHIFT = 50
SEARCH_BOUND = 100

#: Digit targets of x(nP) for the three verify classes.
VERIFY_DIGITS = {"verify-d100": 100, "verify-d1000": 1000, "verify-d4000": 4000}

#: Requests of each class in one round of the point stream.  Rounds repeat
#: until the time is up, so every class keeps this share of the requests.
ROUND = (
    ("verify-d100", 8),
    ("verify-d1000", 3),
    ("verify-d4000", 1),
    ("extremal", 12),
    ("oracle8", 1),
)
CLASSES = tuple(name for name, _ in ROUND)
ROUND_SIZE = sum(count for _, count in ROUND)

#: Height strata of the verify base points: each run of this many requests
#: of a verify class takes one point from every stratum.
STRATA = 12

#: The oracle passes over the base points nearest the median height.
ORACLE_POOL = 24

#: Open extremal parameters take the midpoints of this many equal strata of
#: their range in log scale: few enough that the shortest point phase
#: (about 60 requests of a family kind) passes over every lang-pos cell.
PARAMETER_GRID = 4

#: Extremal domain (README explains the limits).  lang-pos parameters lie in
#: [10^2, 10^4.5]: from about 7.6*10^4 (rows 9, 13) the a > 0 Tate series
#: raises ValueError.  lang-neg uses every recurrence index up to 30, where
#: the first factoring of a cell's a costs no more than the later cached
#: calls.  diff parameters lie in [10, 10^6], where trial division factors a;
#: beyond it Pollard rho makes the cost heavy-tailed.
LANG_POS_RANGE = (2.0, 4.5)
LANG_NEG_MAX_INDEX = 30
DIFF_RANGE = (1.0, 6.0)
# residue -> (step, offset) of the recurrence index, as in the family table;
# a copy, so that a change to the program cannot move the benchmark's inputs
_LANG_NEG_INDEX = {
    1: (512, 161), 2: (32, 13), 3: (16, 6), 5: (512, 289), 6: (32, 11),
    7: (64, 8), 8: (32, 15), 9: (512, 417), 10: (32, 3), 11: (16, 2),
    12: (16, 4), 13: (512, 33), 14: (32, 5), 15: (64, 24),
}
#: lang-neg-4 runs on the Pell numbers d_n directly.
_LANG_NEG_4_MAX_N = 12


@dataclass(frozen=True)
class BasePoint:
    """A nontorsion point on a small fourth-power-free curve."""

    a: int
    x: Fraction
    y: Fraction
    hhat_estimate: float


@dataclass(frozen=True)
class Request:
    """One point request: a class name plus the inputs that class needs."""

    id: int
    cls: str
    a: int = 0
    x: Fraction = Fraction(0)
    y: Fraction = Fraction(0)
    n: int = 1
    family: str = ""
    parameter: int = 0


def sweep_window(seed: int) -> tuple[int, int]:
    shift = 0 if seed == 0 else random.Random(seed).randint(-SWEEP_MAX_SHIFT, SWEEP_MAX_SHIFT)
    return -SWEEP_HALF_WIDTH + shift, SWEEP_HALF_WIDTH + shift


def _fourth_power_free(a: int) -> bool:
    p = 2
    while p**4 <= abs(a):
        if a % p**4 == 0:
            return False
        p += 1
    return True


def _double_x(a: int, x: Fraction) -> Fraction:
    return (x * x - a) ** 2 / (4 * (x**3 + a * x))


def _hhat_estimate(a: int, x: Fraction, doublings: int = 5) -> float:
    # (1/2) h(2^k P) / 4^k; the truncation error is below (log|a| + 1)/4^k
    for _ in range(doublings):
        x = _double_x(a, x)
    return math.log(max(abs(x.numerator), x.denominator)) / (2 * 4**doublings)


def candidate_points(a_max: int = 60, m_max: int = 40, e_max: int = 4) -> list[BasePoint]:
    """Points x = m/e^2 with y != 0 on y^2 = x^3 + a x, |a| <= a_max.

    y != 0 and a != 4 make them nontorsion on a fourth-power-free curve.
    """
    out = []
    for a in range(-a_max, a_max + 1):
        if a in (0, 4) or not _fourth_power_free(a):
            continue
        for e in range(1, e_max + 1):
            e4 = e**4
            for m in range(-m_max, m_max + 1):
                if m == 0 or math.gcd(m, e) != 1:
                    continue
                num = m**3 + a * m * e4
                if num <= 0:
                    continue
                r = math.isqrt(num)
                if r * r == num:
                    x = Fraction(m, e * e)
                    out.append(BasePoint(a, x, Fraction(r, e**3), _hhat_estimate(a, x)))
    return out


def ranked_by_height(candidates: list[BasePoint]) -> list[BasePoint]:
    return sorted(candidates, key=lambda p: (p.hhat_estimate, p.a, p.x))


def stratified_passes(rng: random.Random, candidates: list[BasePoint], strata: int):
    """Endless passes over all candidates, dealt one height stratum at a time.

    Each pass shuffles the points within each of `strata` height strata and
    deals one point from every stratum in turn, so each run of `strata`
    requests covers the whole height range and each full pass holds every
    candidate once: the seed decides the order, not the mix.
    """
    ranked = ranked_by_height(candidates)
    groups = [ranked[k * len(ranked) // strata:(k + 1) * len(ranked) // strata]
              for k in range(strata)]
    while True:
        for group in groups:
            rng.shuffle(group)
        for i in range(max(map(len, groups))):
            for k in rng.sample(range(strata), strata):
                if i < len(groups[k]):
                    yield groups[k][i]


def multiplier(point: BasePoint, digits: int) -> int:
    """n with about `digits` decimal digits in x(nP), from h(nP) ~ 2 n^2 hhat(P)."""
    return max(2, round(math.sqrt(digits * math.log(10) / (2 * point.hhat_estimate))))


def _log_grid(lo: float, hi: float) -> list[int]:
    """Midpoints of PARAMETER_GRID equal strata of [10^lo, 10^hi] in log scale."""
    width = (hi - lo) / PARAMETER_GRID
    return [int(10 ** (lo + (k + 0.5) * width)) for k in range(PARAMETER_GRID)]


def extremal_domain() -> dict[str, list[tuple[str, int]]]:
    """(family, parameter) cells by family kind.  Where a family leaves the
    parameter open, its cells take a fixed log grid over the kind's range,
    so every seed passes over the same cells."""
    lang_neg = [(f"lang-neg-{r}", n) for r, (step, offset) in sorted(_LANG_NEG_INDEX.items())
                for n in range((LANG_NEG_MAX_INDEX - offset) // step + 1)]
    return {
        "lang-pos": [(f"lang-pos-{r}", a1) for r in range(1, 16) for a1 in _log_grid(*LANG_POS_RANGE)],
        "lang-neg": lang_neg + [("lang-neg-4", n) for n in range(_LANG_NEG_4_MAX_N + 1)],
        "diff": [(f"diff-{kind}", a1) for kind in ("lower-pos", "lower-neg", "upper")
                 for a1 in _log_grid(*DIFF_RANGE)],
    }


def _passes(rng: random.Random, items: list):
    """Endless passes over `items`, each in a fresh seeded order, so a run
    covers every item before it repeats one."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


def point_stream(seed: int):
    """The endless point-request sequence for one seed, in rounds of ROUND.

    Verify classes pass over all base points, one height stratum at a time.
    The oracle's cost grows with the square of the height and a run holds as
    few as 15 oracle requests, so it passes over the candidates nearest the
    median height.  Extremal requests alternate between the three family
    kinds and pass over each kind's cells.
    """
    rng = random.Random(f"point:{seed}")
    candidates = candidate_points()
    sources = {cls: stratified_passes(rng, candidates, STRATA) for cls in VERIFY_DIGITS}
    ranked = ranked_by_height(candidates)
    mid = len(ranked) // 2
    sources["oracle8"] = _passes(rng, ranked[mid - ORACLE_POOL // 2: mid + ORACLE_POOL // 2])
    cells = [_passes(rng, kind) for kind in extremal_domain().values()]
    next_id = 0
    while True:
        for cls, count in ROUND:
            for k in range(count):
                if cls == "extremal":
                    family, parameter = next(cells[k % len(cells)])
                    yield Request(next_id, cls, family=family, parameter=parameter)
                else:
                    p = next(sources[cls])
                    n = multiplier(p, VERIFY_DIGITS[cls]) if cls in VERIFY_DIGITS else 1
                    yield Request(next_id, cls, a=p.a, x=p.x, y=p.y, n=n)
                next_id += 1
