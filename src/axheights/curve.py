"""The curve family y^2 = x^3 + a*x: exact point arithmetic and torsion,
the x-only duplication map on reduced integer pairs, and the logs of that
map's integers, read from brackets of their top bits."""

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


def _doubling_gcd(a: int, m: int, d: int) -> int:
    """g = gcd(num, den) for x(2P) = num/den with num = alpha^2, den =
    4 m d beta, alpha = m^2 - a d^2 and beta = m^2 + a d^2, for x(P) = m/d in
    lowest terms with d > 0 and a nonzero.

    num and den share only factors of 16 a^4, because gcd(m, d) = 1:
    gcd(num, d) = 1, gcd(num, m) | a^2 and gcd(num, beta) | 4 a^2.  So g is
    read from the residues of m and d mod 16 a^4, and neither num, den nor
    the squares of m and d have to be built for it.
    """
    k = 16 * a**4
    mk, dk = m % k, d % k
    m2, ad2 = mk * mk, a * dk * dk
    return math.gcd(k, (m2 - ad2) ** 2 % k, 4 * mk * dk * (m2 + ad2) % k)


def x_after_doubling(a: int, m: int, d: int) -> tuple[int, int]:
    """x(2P) = (x^2 - a)^2 / (4(x^3 + a x)), the x-only duplication map, as
    num/den in lowest terms with den > 0, for x(P) = m/d in lowest terms with
    d > 0 and a nonzero; den = 0 raises ZeroDivisionError.  See
    _doubling_gcd for the gcd.
    """
    m2, ad2 = m * m, a * d * d
    alpha, beta = m2 - ad2, m2 + ad2
    if m == 0 or beta == 0:
        raise ZeroDivisionError(f"x(2P) is infinite for x = {m}/{d} on a = {a}")
    g = _doubling_gcd(a, m, d)
    den = 4 * m * d * beta
    if den < 0:
        g = -g
    return alpha * alpha // g, den // g


# ---------------------------------------------------------------------------
# Logs of the doubling's integers from their top bits.
#
# A bracket (lo, hi, e) stands for an integer n with lo 2^e <= n <= hi 2^e.
# float(int) rounds correctly and monotonically, and math.log of an int
# reads only that rounding (a 53-bit significand and a power of 2), which
# does not depend on the scale.  So when float(lo) == float(hi), every
# integer in the bracket has the log of lo << e, bit for bit.  The brackets
# are built from the top _TOP_BITS bits of m, d and a and rounded outward,
# so they are about 2^-120 wide relative to n; the ends round apart only
# when n lies that close to a rounding boundary, and then n is built.
# ---------------------------------------------------------------------------

_Bracket = tuple[int, int, int]

#: bits kept at the top of each bracket's ends
_TOP_BITS = 128
#: x(P) = m/d with max(|m|, d) below this many bits takes the exact route:
#: there building the products costs less than bracketing them (both take
#: about 10 us per call at 700 bits, on a 2-CPU Intel Xeon)
_BRACKET_BITS = 700


def _cut(lo: int, hi: int, e: int) -> _Bracket:
    """The bracket [lo 2^e, hi 2^e], 0 <= lo <= hi, widened outward to ends
    of at most _TOP_BITS bits."""
    s = hi.bit_length() - _TOP_BITS
    if s <= 0:
        return lo, hi, e
    return lo >> s, -(-hi >> s), e + s


def _times(x: _Bracket, y: _Bracket) -> _Bracket:
    return _cut(x[0] * y[0], x[1] * y[1], x[2] + y[2])


def _at(x: _Bracket, e: int) -> tuple[int, int]:
    """The ends of x at the exponent e >= x's own, rounded outward."""
    s = e - x[2]
    return x[0] >> s, -(-x[1] >> s)


def _exceeds(x: _Bracket, y: _Bracket) -> bool:
    """True when every integer in x is larger than every integer in y."""
    e = max(x[2], y[2])
    return _at(x, e)[0] > _at(y, e)[1]


def _size_of_sum(x: _Bracket, y: _Bracket, sign: int) -> _Bracket:
    """A bracket of |x + sign y|; its lower end is 0 when the sum may be 0."""
    e = max(x[2], y[2])
    (xl, xh), (yl, yh) = _at(x, e), _at(y, e)
    lo, hi = (xl + yl, xh + yh) if sign > 0 else (xl - yh, xh - yl)
    if lo > 0:
        return _cut(lo, hi, e)
    if hi < 0:
        return _cut(-hi, -lo, e)
    return _cut(0, max(-lo, hi), e)


def _over(x: _Bracket, g: int) -> _Bracket:
    """A bracket of x / g, for an x divisible by g: the ends are shifted up
    by g's bits first, so that the quotients keep theirs."""
    t = min(g.bit_length(), x[2])
    return _cut((x[0] << t) // g, -(-(x[1] << t) // g), x[2] - t)


def _doubling_brackets(a: int, m: int, d: int) -> tuple[_Bracket, ...] | None:
    """Brackets of |alpha|, d^2, |num| and den, where alpha = m^2 - a d^2
    and x(2P) = num/den in lowest terms, for x(P) = m/d in lowest terms with
    d > 0 and a nonzero; None when max(|m|, d) has fewer than _BRACKET_BITS
    bits, or when beta = m^2 + a d^2, and so den, may be 0.  Where alpha
    may be 0, the brackets of |alpha| and |num| start at 0: den can still
    be told larger than num, but neither log is read from them."""
    if max(m.bit_length(), d.bit_length()) < _BRACKET_BITS:
        return None
    mb, db = _cut(abs(m), abs(m), 0), _cut(d, d, 0)
    m2, d2 = _times(mb, mb), _times(db, db)
    ad2 = _times(_cut(abs(a), abs(a), 0), d2)
    sign = 1 if a > 0 else -1
    alpha, beta = _size_of_sum(m2, ad2, -sign), _size_of_sum(m2, ad2, sign)
    if beta[0] == 0:
        return None
    g = _doubling_gcd(a, m, d)
    lo, hi, e = _times(_times(mb, db), beta)
    return alpha, d2, _over(_times(alpha, alpha), g), _over((lo, hi, e + 2), g)


def _bracket_log(x: _Bracket) -> float | None:
    """math.log of every integer in the bracket x, bit for bit, when both
    ends are positive and round to one double; None when they do not."""
    lo, hi, e = x
    return math.log(lo << e) if lo > 0 and float(lo) == float(hi) else None


def _doubling_logs(a: int, m: int, d: int) -> tuple[float, ...]:
    """math.log of |alpha|, d^2, |num| and den, alpha = m^2 - a d^2 and
    x(2P) = num/den = x_after_doubling(a, m, d), bit for bit.

    Each log is read from its bracket when the bracket decides it; below
    _BRACKET_BITS, and for any log a bracket leaves open, the integers are
    built, which also raises ZeroDivisionError where x(2P) is infinite.
    """
    brackets = _doubling_brackets(a, m, d)
    logs = [None] * 4 if brackets is None else [_bracket_log(x) for x in brackets]
    if None in logs:
        num, den = x_after_doubling(a, m, d)
        exact = (abs(m * m - a * d * d), d * d, abs(num), den)
        logs = [math.log(n) if log is None else log for log, n in zip(logs, exact)]
    return tuple(logs)


def naive_height_after_doubling(a: int, m: int, d: int) -> float:
    """log max(|num|, den) for (num, den) = x_after_doubling(a, m, d), bit
    for bit.

    x has about four times as many digits after a doubling, so the two
    full-size products are most of a doubling's cost.  Above _BRACKET_BITS
    the brackets of |num| and den decide which one is larger, and the
    larger one's bracket its log; only when the brackets overlap or the log
    is left open, and below _BRACKET_BITS, is the pair built.
    """
    brackets = _doubling_brackets(a, m, d)
    if brackets is not None:
        num, den = brackets[2:]
        top = num if _exceeds(num, den) else den if _exceeds(den, num) else None
        log = None if top is None else _bracket_log(top)
        if log is not None:
            return log
    num, den = x_after_doubling(a, m, d)
    return math.log(max(abs(num), den))
