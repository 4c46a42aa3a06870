"""The curve family y^2 = x^3 + a*x: exact point arithmetic and torsion."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .arithmetic import fourth_power_free_part, is_fourth_power_free, isqrt_exact
from .errors import NotMinimal, NotOnCurve, TorsionPoint, ZeroInput


@dataclass(frozen=True, slots=True)
class Point:
    """A rational point: affine (x, y) or the point at infinity (None, None)."""

    x: Fraction | None = None
    y: Fraction | None = None

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __neg__(self) -> "Point":
        if self.is_infinity:
            return self
        return Point(self.x, -self.y)

    def __str__(self) -> str:
        if self.is_infinity:
            return "O"
        return f"({self.x}, {self.y})"


INFINITY = Point()


def affine(x, y) -> Point:
    """Build an affine point from any Fraction-convertible coordinates."""
    return Point(Fraction(x), Fraction(y))


@dataclass(frozen=True)
class TorsionStructure:
    """Torsion subgroup kind ("Z4", "Z2xZ2" or "Z2") and its affine points."""

    kind: str
    points: tuple[Point, ...]


@dataclass(frozen=True)
class Curve:
    """y^2 = x^3 + a*x for a nonzero integer a."""

    a: int

    def __post_init__(self):
        try:
            a = operator.index(self.a)
        except TypeError:
            raise TypeError(f"a must be an integer, got {self.a!r}") from None
        object.__setattr__(self, "a", a)
        if a == 0:
            raise ZeroInput("a must be nonzero (a = 0 is singular for heights)")

    @property
    def discriminant(self) -> int:
        return -64 * self.a**3

    @property
    def is_minimal(self) -> bool:
        return is_fourth_power_free(self.a)

    def minimalize(self) -> tuple["Curve", int]:
        """The fourth-power-free model and the scale s with a = a' * s^4.

        Points map by (x, y) -> (x/s^2, y/s^3).
        """
        a4f, s = fourth_power_free_part(self.a)
        return (self if s == 1 else Curve(a4f)), s

    def contains(self, point: Point) -> bool:
        """True iff the point satisfies y^2 = x^3 + a*x exactly."""
        if point.is_infinity:
            return True
        m, d = point.x.numerator, point.x.denominator
        n, f = point.y.numerator, point.y.denominator
        # x^3 + a x = m(m^2 + a d^2)/d^3 is in lowest terms, as gcd(m, d) = 1
        # gives gcd(m^2 + a d^2, d) = 1, and so is y^2 = n^2/f^2
        return f * f == d**3 and n * n == m * (m * m + self.a * d * d)

    def _require(self, *points: Point) -> None:
        for p in points:
            if not self.contains(p):
                raise NotOnCurve(f"{p} is not on y^2 = x^3 + {self.a}x")

    def _require_minimal(self) -> None:
        if not self.is_minimal:
            raise NotMinimal(f"a = {self.a} is not fourth-power-free")

    def _require_nontorsion(self, point: Point) -> None:
        if self.is_torsion(point):
            raise TorsionPoint(f"{point} is torsion; its canonical height is 0")

    def double(self, point: Point) -> Point:
        """2P; returns infinity for P = O and for 2-torsion (y = 0)."""
        self._require(point)
        return self._add_raw(point, point)

    def add(self, p: Point, q: Point) -> Point:
        """Chord-tangent group law."""
        self._require(p, q)
        return self._add_raw(p, q)

    def _add_raw(self, p: Point, q: Point) -> Point:
        if p.is_infinity:
            return q
        if q.is_infinity:
            return p
        if p.x == q.x:
            # q = -p, or p = q of order 2: the vertical line
            if p.y == -q.y:
                return INFINITY
            lam = (3 * p.x * p.x + self.a) / (2 * p.y)
        else:
            lam = (q.y - p.y) / (q.x - p.x)
        x3 = lam * lam - p.x - q.x
        return Point(x3, lam * (p.x - x3) - p.y)

    def multiply(self, n: int, point: Point) -> Point:
        """n*P by binary double-and-add on exact rationals."""
        self._require(point)
        if n < 0:
            n, point = -n, -point
        result, base = INFINITY, point
        while n:
            if n & 1:
                result = self._add_raw(result, base)
            n >>= 1
            if n:
                base = self._add_raw(base, base)
        return result

    def torsion_subgroup(self) -> TorsionStructure:
        """The rational torsion subgroup.

        Z4 exactly when the fourth-power-free model has a = 4, Z2xZ2 when -a
        is a perfect square, Z2 otherwise.  On a non-minimal model the Z4
        points are carried back through (x, y) -> (s^2 x, s^3 y).
        """
        return _torsion_cached(self.a)

    def is_torsion(self, point: Point) -> bool:
        """True iff the point has finite order."""
        self._require(point)
        return point.is_infinity or point in self.torsion_subgroup().points


@lru_cache(maxsize=65536)
def _torsion_cached(a: int) -> TorsionStructure:
    zero = affine(0, 0)
    # a = 4 s^4 (minimal model a = 4) detected by two integer square roots,
    # so no factorisation is ever needed here
    if a > 0 and a % 4 == 0:
        s2 = isqrt_exact(a // 4)
        s = isqrt_exact(s2) if s2 is not None else None
        if s is not None:
            s2, s3 = s * s, s**3
            return TorsionStructure(
                "Z4", (zero, affine(2 * s2, 4 * s3), affine(2 * s2, -4 * s3))
            )
    root = isqrt_exact(-a)
    if root is not None:
        return TorsionStructure("Z2xZ2", (affine(root, 0), affine(-root, 0), zero))
    return TorsionStructure("Z2", (zero,))


def _doubling_terms(a: int, m: int, d: int) -> tuple[int, int, int]:
    """(alpha, beta, g) for x(P) = m/d in lowest terms with d > 0 and a
    nonzero: x(2P) = alpha^2 / (4 m d beta) with alpha = m^2 - a d^2 and
    beta = m^2 + a d^2, and g > 0 the gcd of that numerator and denominator;
    a zero denominator raises ZeroDivisionError.

    num = alpha^2 and den = 4 m d beta share only factors of 16 a^4, because
    gcd(m, d) = 1: gcd(num, d) = 1, gcd(num, m) | a^2 and gcd(num, beta) |
    4 a^2.  So g is read from their residues mod 16 a^4, and neither has to
    be built for it.
    """
    m2, ad2 = m * m, a * d * d
    alpha, beta = m2 - ad2, m2 + ad2
    if m == 0 or beta == 0:
        raise ZeroDivisionError(f"x(2P) is infinite for x = {m}/{d} on a = {a}")
    k = 16 * a**4
    g = math.gcd(k, (alpha % k) ** 2 % k, 4 * (m % k) * (d % k) * (beta % k) % k)
    return alpha, beta, g


def x_after_doubling(a: int, m: int, d: int) -> tuple[int, int]:
    """x(2P) = (x^2 - a)^2 / (4(x^3 + a x)), the x-only duplication map, as
    num/den in lowest terms with den > 0, for x(P) = m/d in lowest terms with
    d > 0 and a nonzero; den = 0 raises ZeroDivisionError.  See
    _doubling_terms for the gcd.
    """
    alpha, beta, g = _doubling_terms(a, m, d)
    den = 4 * m * d * beta
    if den < 0:
        g = -g
    return alpha * alpha // g, den // g


#: relative slack on the float logs naive_height_after_doubling compares:
#: math.log of an integer is off by a few ulps of its size, far below this
_LOG_SLACK = 2.0**-40
_LOG_4 = math.log(4.0)


def naive_height_after_doubling(a: int, m: int, d: int) -> float:
    """log max(|num|, den) for (num, den) = x_after_doubling(a, m, d), bit
    for bit, building only the larger of the two.

    x has about four times as many digits after a doubling, so the two
    full-size products are most of a doubling's cost.  The float logs of
    alpha^2 and |4 m d beta| decide which one is larger; only when they lie
    within the slack of each other are both built.
    """
    alpha, beta, g = _doubling_terms(a, m, d)
    log_den = _LOG_4 + math.log(abs(m)) + math.log(d) + math.log(abs(beta))
    log_num = 2.0 * math.log(abs(alpha)) if alpha else -math.inf
    margin = _LOG_SLACK * (1.0 + log_den)
    if log_num > log_den + margin:
        top = alpha * alpha
    elif log_num < log_den - margin:
        top = abs(4 * m * d * beta)
    else:
        top = max(alpha * alpha, abs(4 * m * d * beta))
    return math.log(top // g)
