"""Local height functions for y^2 = x^3 + a*x.

Non-archimedean heights are exact rational multiples of log(p), read off a
closed-form case split keyed on reduction type; they are only converted to
floating point at final summation.  The archimedean height is Tate's
rapidly converging series, whose loop stops once no term left can change
its float sum.  What a height reads of the curve itself (log|a|,
log|disc|, the primes of 2a and their table keys) is computed once per
curve, in bounded caches keyed on a.  For a < 0 the series runs on the
curve itself, with the first term rewritten through x^4 z = (x^2 - a)^2
so that a small or negative x never divides by zero.  For a > 0 the real
locus contains (0, 0), so the series runs on the model translated by
sqrt(a),

    y^2 = x^3 - 3*sqrt(a)*x^2 + 4*a*x - 2*a^(3/2),

whose points all have x' >= sqrt(a); translation does not change the
archimedean local height.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import NamedTuple

from .arithmetic import _require_prime, factorize, legendre_symbol, log_ratio, ord_int
from .curve import Curve, Point, _doubling_logs
from .errors import NotOnCurve, ZeroX

DEFAULT_TERMS = 40

#: curves whose per-a facts the caches of this module and of bounds keep; a
#: sweep visits the curves in turn, and a height reads its curve's facts
#: once per point
_PER_A_CACHE = 256

_NO_CORRECTION = (Fraction(0), "otherwise")


@dataclass(frozen=True)
class ReductionData:
    """Reduction type of the curve at one prime."""

    prime: int
    kodaira: str  # "I0", "II", "III", "I0*", "I2*", "I3*", "III*"
    tamagawa: int
    ord_delta: int
    tate_step: int
    trace: str

    def __str__(self) -> str:
        return (
            f"p={self.prime}: {self.kodaira}, c={self.tamagawa}, "
            f"ord_p(disc)={self.ord_delta} [{self.trace}]"
        )


@dataclass(frozen=True, slots=True)
class NonArchLocalHeight:
    """lambda_p(P) = coefficient * log(prime), exactly."""

    prime: int
    coefficient: Fraction
    correction: Fraction
    correction_tag: str

    @property
    def value(self) -> float:
        # int / int is correctly rounded, as float(coefficient) is
        return self.coefficient.numerator / self.coefficient.denominator * math.log(self.prime)


@dataclass(frozen=True, slots=True)
class ArchHeightValue:
    """Truncated Tate series value with its certified geometric tail bound."""

    value: float
    tail_bound: float
    terms_used: int


def bad_primes(curve: Curve) -> list[int]:
    """Primes of bad reduction, i.e. the primes dividing 2a: 2 and those of a."""
    return [place.prime for place in _bad_places(curve.a)]


class _Place(NamedTuple):
    """What a height reads of one finite place of E_a: the prime, the key of
    its reduction row (see _row_key), log p, and 2 ord_p(disc), which is
    (1/12) ord_p(disc) in 24ths of log p."""

    prime: int
    two: bool
    cls: int
    log_prime: float
    disc_24ths: int


def _place(a: int, p: int) -> _Place:
    # ord_p(disc) = ord_p(64 a^3), read from a for any a, minimal or not
    return _Place(p, *_row_key(a, p), math.log(p), 2 * (3 * ord_int(a, p) + 6 * (p == 2)))


@lru_cache(maxsize=_PER_A_CACHE)
def _bad_places(a: int) -> tuple[_Place, ...]:
    """The places of the primes of 2a, sorted, from the one factorisation of
    a: computed once per curve, for every point's height and sum identity.
    Bounded, and every value immutable; bad_primes and height_primes build
    fresh lists from it."""
    return tuple(_place(a, p) for p in sorted({2, *factorize(a)}))


# Reduction classes of E_a.  A row holds the Kodaira symbol, the Tamagawa
# index (None for I0*, where it is 4 or 2 as (-a/p^2 | p) is 1 or -1), the
# deciding Tate step and its trace, and lambda_p's corrections as (least
# valuation, value, tag): the first correction whose least valuation
# ord_p(x) reaches is subtracted (for III at 2, ord_2(x + a) is read).
class _Reduction(NamedTuple):
    kodaira: str
    tamagawa: int | None
    tate_step: int
    trace: str
    corrections: tuple[tuple[int, Fraction, str], ...]


_X_PLUS_A = ((1, Fraction(1, 4), "a = 2,3 mod 4, ord_2(x+a) > 0"),)
_HALF_AT_1 = (1, Fraction(1, 2), "a = 12,20,36,44 mod 64, ord_2(x) > 0")
_HALF_AT_2 = (2, Fraction(1, 2), "a = 4,28,52,60 mod 64, ord_2(x) > 1")

# at 2, keyed by a mod 64 (a fourth-power-free a is never 0 mod 16)
_TWO_ADIC = {r: row for residues, row in (
    (range(1, 64, 4), _Reduction("II", 1, 3, "step 3: a6' = a+1 = 2*odd", ())),
    (range(3, 64, 4), _Reduction("III", 2, 4, "step 4: b8' = 12 mod 16", _X_PLUS_A)),
    (range(2, 64, 4), _Reduction("III", 2, 4, "step 4: ord(b8) = 2", _X_PLUS_A)),
    (range(8, 64, 16), _Reduction("III*", 2, 9, "step 9: ord(a) = 3",
                                  ((1, Fraction(3, 4), "a = 0 mod 8, ord_2(x) > 0"),))),
    # a = 4 mod 8: step 7 with a double root, split by a mod 32 / mod 64
    ((12, 44), _Reduction("I2*", 2, 7, "step 7: quadratic irreducible", (_HALF_AT_1,))),
    ((28, 60), _Reduction("I2*", 4, 7, "step 7: quadratic splits",
                          (_HALF_AT_2, (1, Fraction(3, 4), "a = 28,60 mod 64, ord_2(x) = 1")))),
    ((20, 36), _Reduction("I3*", 2, 7, "step 7: Y^2+Y+1 at depth 3", (_HALF_AT_1,))),
    ((4, 52), _Reduction("I3*", 4, 7, "step 7: Y^2+Y at depth 3",
                         (_HALF_AT_2, (1, Fraction(7, 8), "a = 4,52 mod 64, ord_2(x) = 1")))),
) for r in residues}

# at an odd p, indexed by e = ord_p(a) <= 3 on a minimal model
_ODD = (
    _Reduction("I0", 1, 1, "step 1: good reduction", ()),
    _Reduction("III", 2, 4, "step 4: ord(b8) = 2", ((1, Fraction(1, 4), "p^1||a, ord_p(x) > 0"),)),
    _Reduction("I0*", None, 6, "step 6: cubic T^3 + (a/p^2)T separable",
               ((1, Fraction(1, 2), "p^2||a, ord_p(x) > 0"),)),
    _Reduction("III*", 2, 9, "step 9: ord(a) = 3", ((1, Fraction(3, 4), "p^3||a, ord_p(x) > 0"),)),
)


def _reduction(a: int, p: int) -> tuple[_Reduction, int]:
    """The reduction class of a minimal a at the prime p, and ord_p(disc),
    disc = -64 a^3.  p is not tested for primality: the public callers check
    it, the internal ones pass primes from factorize."""
    return _row(*_row_key(a, p))


def _row_key(a: int, p: int) -> tuple[bool, int]:
    """(p == 2, cls): the key of a's row in the reduction tables, cls = a mod
    64 at 2 and ord_p(a) at an odd p."""
    return (True, a % 64) if p == 2 else (False, ord_int(a, p))


def _row(two: bool, cls: int) -> tuple[_Reduction, int]:
    """_reduction from the row's key: a mod 64 at 2, which keeps ord_2(a)
    <= 3 of a minimal a, and e = ord_p(a) at an odd p."""
    if two:
        return _TWO_ADIC[cls], 6 + 3 * ord_int(cls, 2)
    return _ODD[cls], 3 * cls


def classify_reduction(curve: Curve, p: int) -> ReductionData:
    """Kodaira symbol, Tamagawa index and ord_p(disc) at the prime p.

    This is a closed-form lookup, not a general Tate's-algorithm engine;
    the trace records which Tate step decides the type, for auditing.
    A p that is not prime raises NotPrime.
    """
    curve._require_minimal()
    _require_prime(p)
    row, ord_delta = _reduction(curve.a, p)
    tamagawa, trace = row.tamagawa, row.trace
    if tamagawa is None:
        sign = legendre_symbol(-curve.a // (p * p), p)
        tamagawa, trace = (4 if sign == 1 else 2), f"{trace}; (-a/p^2 | p) = {sign}"
    return ReductionData(p, row.kodaira, tamagawa, ord_delta, row.tate_step, trace)


def lambda_nonarch(curve: Curve, point: Point, p: int) -> NonArchLocalHeight:
    """Exact local height at a finite prime for an affine nontorsion point:
    coefficient = (1/2) max(0, -ord_p(x)) + (1/12) ord_p(disc) - correction.
    A p that is not prime raises NotPrime."""
    curve._require_minimal()
    curve._require_nontorsion(point)
    _require_prime(p)
    return _lambda_p(curve.a, point.x.numerator, point.x.denominator, p)


def _lambda_p(a: int, m: int, d: int, p: int) -> NonArchLocalHeight:
    """lambda_nonarch from a and x(P) = m/d (lowest terms, d > 0) alone, for
    a point and prime the caller has checked."""
    coefficient, correction, tag, _, _ = _local_terms(*_local_class(*_row_key(a, p), m, d, p))
    return NonArchLocalHeight(p, coefficient, correction, tag)


#: min(ord_2(n), 2) for a nonzero n, indexed by n mod 4
_CLAMPED_ORD_2 = (2, 0, 1, 0)


def _local_class(two: bool, cls: int, m: int, d: int, p: int) -> tuple[bool, int, int, int]:
    """The key of _local_terms for lambda_p at x = m/d (lowest terms, d > 0),
    given (two, cls) = _row_key(a, p): whether p = 2; the row of the
    reduction tables, a mod 64 at 2 and e = ord_p(a) at an odd p; neg =
    max(0, -ord_p(x)); and the valuation v that picks the correction
    (ord_2(x + a) for III at 2, else ord_p(x)), clamped to -1..2.  The
    clamp loses nothing while every correction's least valuation lies in
    0..2 (the tables use 1 and 2).  p enters only through these small ints,
    so the key space does not grow with the primes a caller meets.

    gcd(m, d) = 1, so when p | d, v = -ord_p(d) < 0 (for III at 2, m + a d
    is then odd), and otherwise v is ord_p(m) >= 0 or, for III at 2,
    ord_2(m + a d) >= 0; x + a = 0 counts as valuation +infinity, as 0 = 0
    mod 4.
    """
    if two:
        if not d & 1:
            return True, cls, (d & -d).bit_length() - 1, -1
        # = x + a mod 4, as cls = a mod 64
        n = m + cls * (d & 3) if _TWO_ADIC[cls].kodaira == "III" else m
        return True, cls, 0, _CLAMPED_ORD_2[n & 3]
    if not d % p:
        return False, cls, ord_int(d, p), -1
    return False, cls, 0, 0 if m % p else 1 if m % (p * p) else 2


@lru_cache(maxsize=1024)
def _local_terms(
    two: bool, cls: int, neg: int, v: int
) -> tuple[Fraction, Fraction, str, int | Fraction, float]:
    """(coefficient, correction, tag, 24 * coefficient, float coefficient) of
    lambda_p for the key of _local_class: coefficient = (1/12)(6 neg +
    ord_p(disc)) - correction, where the correction is the first of the
    row's whose least valuation v reaches.  24 * coefficient is an int, as
    every correction is a multiple of 1/24; were a patched one not, it would
    stay a Fraction.  The float is numerator / denominator, correctly
    rounded, so float coefficient * log p is NonArchLocalHeight.value bit for
    bit.

    The memo holds only immutable values and is bounded; the key holds no p.
    A test that patches _TWO_ADIC or _ODD must call _local_terms.cache_clear()
    before and after, or it reads the rows of the other tables.
    """
    row, ord_delta = _row(two, cls)
    correction, tag = next(((value, tag) for least, value, tag in row.corrections if v >= least),
                           _NO_CORRECTION)
    # (6 neg + ord_delta) / 12 - correction, as one Fraction
    twelfths = 6 * neg + ord_delta
    coefficient = Fraction(
        twelfths * correction.denominator - 12 * correction.numerator, 12 * correction.denominator
    )
    twenty_fourths = 24 * coefficient
    if twenty_fourths.denominator == 1:
        twenty_fourths = twenty_fourths.numerator
    value = coefficient.numerator / coefficient.denominator
    return coefficient, correction, tag, twenty_fourths, value


# ---------------------------------------------------------------------------
# Tate series, scale-free iterations.
#
# a < 0: with t = sqrt|a|/x on the identity component, one doubling maps
#        t -> 4t(1-t^2)/(1+t^2)^2 and the series term is z = (1+t^2)^2.
# a > 0: with w = sqrt(a)/x' on the translated model, one doubling maps
#        w -> 4w(1-w)(w^2+(1-w)^2)/z(w) and z(w) = 1 - 8(w(1-w))^2,
#        which makes 1/2 <= z <= 1 evident.
# ---------------------------------------------------------------------------


def _schedule(weight: float, sign: float) -> tuple[tuple[float, float], ...]:
    """(weight, limit) of the series terms k = 1..DEFAULT_TERMS: the weight
    is the previous one times 1/4, from the given one, and limit = sign *
    2^(e+53) for the e with 2^(e-1) <= weight < 2^e.  Every weight is a
    power of 2, so limit = sign * 2^54 * weight."""
    out = []
    for _ in range(DEFAULT_TERMS):
        weight *= 0.25
        out.append((weight, sign * weight * 2.0**54))
    return tuple(out)


#: the a < 0 terms 4^-k log1p(t^2)/4, which are >= 0: stop once series >= limit
_NEG_TERMS = _schedule(0.25, 1.0)
#: the a > 0 terms 4^-k log(z)/8, which are <= 0: stop once series <= limit
_POS_TERMS = _schedule(0.125, -1.0)


def _z_pos(w: float) -> float:
    s = w * (1.0 - w)
    return 1.0 - 8.0 * s * s


@lru_cache(maxsize=_PER_A_CACHE)
def _series_constants(a: int) -> tuple[float, float]:
    """(log|a|, log|disc| / 12) for the Tate series of E_a, computed once per
    curve.  Kept apart from _bad_places, as the series never factors a."""
    return math.log(abs(a)), math.log(64 * abs(a) ** 3) / 12.0


def z_value(curve: Curve, point: Point) -> float:
    """The Tate-series term z for this point on the appropriate model.

    a < 0: z = (1 - a/x^2)^2 on the curve itself (x != 0 required).
    a > 0: z = 1 - 8(w(1-w))^2 with w = sqrt(a)/(x + sqrt(a)); x < 0 raises
    NotOnCurve, as x^3 + a x < 0 there.
    """
    if point.is_infinity:
        raise ZeroX("z is undefined at infinity")
    a, m, d = curve.a, point.x.numerator, point.x.denominator
    if a < 0:
        if m == 0:
            raise ZeroX("z is undefined at x = 0 for a < 0")
        try:
            return (1.0 - a * d * d / (m * m)) ** 2
        except OverflowError:
            return math.inf
    if m < 0:
        raise NotOnCurve(f"no real point of y^2 = x^3 + {a}x has x = {point.x} < 0")
    return _z_pos(_translated_start(math.log(a), m, d)[1])


def _translated_start(log_a: float, m: int, d: int) -> tuple[float, float]:
    """(log u, w) with u = 1 + x/sqrt(a) and w = 1/u = sqrt(a)/(x + sqrt(a)),
    for a > 0 with log_a = log(a) and x = m/d >= 0 in lowest terms; safe for
    huge x, where u is taken as x/sqrt(a)."""
    if m == 0:
        return 0.0, 1.0
    lq = log_ratio(m, d) - 0.5 * log_a  # log of q = x/sqrt(a)
    if lq > 300.0:
        return lq, math.exp(-lq)
    q = math.exp(lq)
    return math.log1p(q), 1.0 / (1.0 + q)


def tail_bound(terms: int) -> float:
    """Geometric bound on the dropped tail: sum_{k>terms} 4^-k log(4) / 8."""
    return math.log(4.0) / (24.0 * 4.0**terms)


_TAIL_BOUND = tail_bound(DEFAULT_TERMS)


def lambda_archimedean(curve: Curve, point: Point) -> ArchHeightValue:
    """Archimedean local height by the truncated Tate series.

    The value is the float sum of the terms k = 0..DEFAULT_TERMS, bit for
    bit, and the remainder is below tail_bound(DEFAULT_TERMS).  The loop
    stops before term k once no term left can change that float sum: each
    term k has the sign of the series so far and magnitude below its
    weight w_k = 2^(e_k - 1), a power of 2, and once |series| >=
    2^(e_k + 53), half an ulp of series is at least 2^e_k, so adding any
    term left rounds back to series (see _lambda_inf for why the terms keep
    to their weights).  log|a| and log|disc| / 12 come once per curve from
    a bounded cache of immutable floats.  Exact rationals enter only
    through log of (x^2 - a) and of x, taken with big-integer logs (for
    huge x of a < 0 read from brackets of their top bits), so huge
    coordinates never overflow.

    For a > 0 rounding can take w just past 1 near w = 1/2, and log z then
    raises ValueError some 25 steps later, as it does on lang-pos-7 at
    a1 = 10^6 at step 26, before any stop.  The stop does not change this:
    a series whose w has left [0, 1] never stops early, so it raises
    exactly where the full sum raises.
    """
    curve._require_nontorsion(point)
    return _lambda_inf(curve.a, point.x.numerator, point.x.denominator)


def _lambda_inf(a: int, m: int, d: int) -> ArchHeightValue:
    """lambda_archimedean from a and x(P) = m/d (lowest terms, d > 0) alone,
    for a point the caller checked.

    For a < 0 the first term and the seed t read log|m^2 - a d^2|, log d^2
    and log|num| - log den of x(2P) = num/den from curve._doubling_logs:
    past the crossover from the brackets of one doubling of the chain that
    the limit oracle runs, without building those integers, and bit for
    bit as from the built ones, which it builds where a bracket does not
    decide.

    The stop of lambda_archimedean is exact because every term has the
    sign of series and magnitude below its weight while t, w lie in
    [0, 1]: log1p(t^2) is in [0, log 2] for |t| <= 1, which every t_k
    keeps up to rounding (with t = tan(theta) the step is t -> sin(4
    theta)), and log z is in [-log 2, 0] for w in [0, 1].  The a > 0
    series stops only while w is in [0, 1].  Rounding can take w just
    past 1 near w = 1/2; w then turns negative and stays so, growing
    fourfold per step from about 1e-15, and needs more than 20 steps
    before a term reaches its weight or z turns negative.  For a > 0 a
    stop needs |series| >= 2^(51 - 2k) while |series| < 2^-5, so it comes
    at k >= 29, and a w that leaves [0, 1] from there on reaches neither
    by term 40.  terms_used and tail_bound are those of DEFAULT_TERMS, as
    the value is that sum.  log|a| and log|disc| / 12 come from
    _series_constants(a), a bounded per-curve cache of two floats.
    """
    log_a, log_disc_12 = _series_constants(a)
    series = 0.0
    if a < 0:
        # k = 0 term via x^4 z = (x^2 - a)^2; then iterate from 2P, which
        # lies on the identity component so every t_k is in (0, 1), or 0.0
        # once it underflows, a fixed point whose terms are exactly 0.0.
        # log z = 2 log(1 + t^2), so the k-th term is 4^-k log1p(t^2)/4.
        # x^2 - a = (m^2 - a d^2)/d^2 and x(2P) = num/den
        log_alpha, log_d2, log_num, log_den = _doubling_logs(a, m, d)
        first = 0.25 * (log_alpha - log_d2)
        t = math.exp(0.5 * log_a - (log_num - log_den))
        for weight, limit in _NEG_TERMS:
            if series >= limit:
                break
            s = t * t
            series += weight * math.log1p(s)
            t = 4.0 * t * (1.0 - s) / ((1.0 + s) ** 2)
    else:
        log_u0, w = _translated_start(log_a, m, d)
        z = _z_pos(w)
        first = 0.25 * log_a + 0.5 * log_u0 + 0.125 * math.log(z)
        # w = 0.0 (underflow) is a fixed point of the step with log z = 0.0
        for weight, limit in _POS_TERMS:
            if series <= limit and 0.0 <= w <= 1.0:
                break
            v = 1.0 - w
            w = 4.0 * w * v * (w * w + v * v) / z
            s = w * (1.0 - w)
            z = 1.0 - 8.0 * s * s
            series += weight * math.log(z)
    value = first + series - log_disc_12
    return ArchHeightValue(value, _TAIL_BOUND, DEFAULT_TERMS)
