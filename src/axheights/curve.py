"""The curve family y^2 = x^3 + a*x: exact point arithmetic and torsion."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .arithmetic import fourth_power_free_part, is_fourth_power_free, isqrt_exact
from .errors import NotOnCurve, ZeroInput


@dataclass(frozen=True)
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
        return point.y * point.y == point.x**3 + self.a * point.x

    def _require(self, *points: Point) -> None:
        for p in points:
            if not self.contains(p):
                raise NotOnCurve(f"{p} is not on y^2 = x^3 + {self.a}x")

    def double(self, point: Point) -> Point:
        """2P; returns infinity for P = O and for 2-torsion (y = 0)."""
        self._require(point)
        return self._double_raw(point)

    def _double_raw(self, point: Point) -> Point:
        if point.is_infinity or point.y == 0:
            return INFINITY
        x, y = point.x, point.y
        lam = (3 * x * x + self.a) / (2 * y)
        x2 = lam * lam - 2 * x
        return Point(x2, lam * (x - x2) - y)

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
            if p.y == -q.y:
                return INFINITY
            return self._double_raw(p)
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
                base = self._double_raw(base)
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


def x_after_doubling(a: int, m: int, d: int) -> tuple[int, int]:
    """x(2P) = (x^2 - a)^2 / (4(x^3 + a x)), the x-only duplication map, as
    num/den in lowest terms with den > 0, for x(P) = m/d in lowest terms with
    d > 0 and a nonzero; den = 0 raises ZeroDivisionError.

    num = (m^2 - a d^2)^2 and den = 4 m d (m^2 + a d^2) share only factors of
    16 a^4, because gcd(m, d) = 1: gcd(num, d) = 1, gcd(num, m) | a^2 and
    gcd(num, m^2 + a d^2) | 4 a^2.  So the gcd is taken against 16 a^4
    instead of at full size.
    """
    m2, ad2 = m * m, a * d * d
    num = (m2 - ad2) ** 2
    den = 4 * m * d * (m2 + ad2)
    if den == 0:
        raise ZeroDivisionError(f"x(2P) is infinite for x = {m}/{d} on a = {a}")
    k = 16 * a**4
    g = math.gcd(math.gcd(num % k, k), den % k)
    if den < 0:
        g = -g
    return num // g, den // g
