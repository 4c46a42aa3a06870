"""Local height functions for y^2 = x^3 + a*x.

Non-archimedean heights are exact rational multiples of log(p), read off a
closed-form case split keyed on reduction type; they are only converted to
floating point at final summation.  The archimedean height is Tate's
rapidly converging series.  For a < 0 the series runs on the curve itself,
with the first term rewritten through x^4 z = (x^2 - a)^2 so that a small
or negative x never divides by zero.  For a > 0 the real locus contains
(0, 0), so the series runs on the model translated by sqrt(a),

    y^2 = x^3 - 3*sqrt(a)*x^2 + 4*a*x - 2*a^(3/2),

whose points all have x' >= sqrt(a); translation does not change the
archimedean local height.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .arithmetic import _require_prime, factorize, legendre_symbol, log_ratio, ord_int
from .curve import Curve, Point, _doubling_logs
from .errors import NotOnCurve, ZeroX

DEFAULT_TERMS = 40

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
    return sorted({2, *factorize(curve.a)})


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
    if p == 2:
        return _TWO_ADIC[a % 64], 6 + 3 * ord_int(a, 2)
    e = ord_int(a, p)
    return _ODD[e], 3 * e


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
    row, ord_delta = _reduction(a, p)
    ord_x = ord_int(m, p) - ord_int(d, p)
    v = ord_x
    if p == 2 and row.kodaira == "III":
        # ord_2(x + a) = ord_2(m + a d) - ord_2(d), as gcd(m + a d, d) = 1: with
        # an even denominator the valuation is negative and the case cannot
        # fire.  x + a = 0 counts as valuation +infinity.
        s = m + a * d
        v = math.inf if s == 0 else ord_int(s, 2) - ord_int(d, 2)
    correction, tag = next(((value, tag) for least, value, tag in row.corrections if v >= least),
                           _NO_CORRECTION)
    # (6 max(0, -ord_x) + ord_delta) / 12 - correction, as one Fraction
    twelfths = 6 * max(0, -ord_x) + ord_delta
    coefficient = Fraction(
        twelfths * correction.denominator - 12 * correction.numerator, 12 * correction.denominator
    )
    return NonArchLocalHeight(p, coefficient, correction, tag)


# ---------------------------------------------------------------------------
# Tate series, scale-free iterations.
#
# a < 0: with t = sqrt|a|/x on the identity component, one doubling maps
#        t -> 4t(1-t^2)/(1+t^2)^2 and the series term is z = (1+t^2)^2.
# a > 0: with w = sqrt(a)/x' on the translated model, one doubling maps
#        w -> 4w(1-w)(w^2+(1-w)^2)/z(w) and z(w) = 1 - 8(w(1-w))^2,
#        which makes 1/2 <= z <= 1 evident.
# ---------------------------------------------------------------------------


def _step_neg(t: float) -> float:
    s = t * t
    return 4.0 * t * (1.0 - s) / ((1.0 + s) ** 2)


def _z_pos(w: float) -> float:
    s = w * (1.0 - w)
    return 1.0 - 8.0 * s * s


def _step_pos(w: float, z: float) -> float:
    """The next w from w and z = _z_pos(w), which the series has already
    taken the log of."""
    v = 1.0 - w
    return 4.0 * w * v * (w * w + v * v) / z


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
    return _z_pos(_translated_start(a, m, d)[1])


def _translated_start(a: int, m: int, d: int) -> tuple[float, float]:
    """(log u, w) with u = 1 + x/sqrt(a) and w = 1/u = sqrt(a)/(x + sqrt(a)),
    for a > 0 and x = m/d >= 0 in lowest terms; safe for huge x, where u is
    taken as x/sqrt(a)."""
    if m == 0:
        return 0.0, 1.0
    lq = log_ratio(m, d) - 0.5 * math.log(a)  # log of q = x/sqrt(a)
    if lq > 300.0:
        return lq, math.exp(-lq)
    q = math.exp(lq)
    return math.log1p(q), 1.0 / (1.0 + q)


def tail_bound(terms: int) -> float:
    """Geometric bound on the dropped tail: sum_{k>terms} 4^-k log(4) / 8."""
    return math.log(4.0) / (24.0 * 4.0**terms)


def lambda_archimedean(curve: Curve, point: Point) -> ArchHeightValue:
    """Archimedean local height by the truncated Tate series.

    Sums the terms k = 0..DEFAULT_TERMS; the remainder is below
    tail_bound(DEFAULT_TERMS).  Exact rationals enter only through log of
    (x^2 - a) and of x, taken with big-integer logs (for huge x of a < 0
    read from brackets of their top bits), so huge coordinates never
    overflow.
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
    """
    series = 0.0
    if a < 0:
        # k = 0 term via x^4 z = (x^2 - a)^2; then iterate from 2P, which
        # lies on the identity component so every t_k is in (0, 1), or 0.0
        # once it underflows, a fixed point whose terms are exactly 0.0.
        # log z = 2 log(1 + t^2), so the k-th term is 4^-k log1p(t^2)/4.
        # x^2 - a = (m^2 - a d^2)/d^2 and x(2P) = num/den
        log_alpha, log_d2, log_num, log_den = _doubling_logs(a, m, d)
        first = 0.25 * (log_alpha - log_d2)
        t = math.exp(0.5 * math.log(-a) - (log_num - log_den))
        weight = 0.25
        for _ in range(DEFAULT_TERMS):
            weight *= 0.25
            series += weight * math.log1p(t * t)
            t = _step_neg(t)
    else:
        la = math.log(a)
        log_u0, w = _translated_start(a, m, d)
        z = _z_pos(w)
        first = 0.25 * la + 0.5 * log_u0 + 0.125 * math.log(z)
        weight = 0.125
        # w = 0.0 (underflow) is a fixed point of _step_pos with log z = 0.0
        for _ in range(DEFAULT_TERMS):
            weight *= 0.25
            w = _step_pos(w, z)
            z = _z_pos(w)
            series += weight * math.log(z)
    value = first + series - math.log(64 * abs(a) ** 3) / 12.0  # log|disc|
    return ArchHeightValue(value, tail_bound(DEFAULT_TERMS), DEFAULT_TERMS)
