"""Naive and canonical heights, the limit-definition oracle, and the
denominator analysis of x(nP).

The canonical height is assembled from local heights, each a function of
a and x(P) alone: the truncated Tate series at the archimedean place plus
exact rational multiples of log(p) at the finite places that height_primes
selects.  Each public entry point checks its point once, through
Curve.contains, and then calls a private core that trusts it:
canonical_height the local heights, denominator_sequence and
nonarch_sum_identity their _denominator_sequence and _sum_identity, which
bounds calls on points it has already checked.  The limit oracle recomputes
it independently from the definition (1/2) lim h(2^n P) / 4^n, bit for
bit as in exact arithmetic: it doubles x as an integer pair in lowest
terms while the pair is small, and past that runs the rest of the chain
on integer brackets of the top bits of the pair and on its residues mod
powers of 16 a^4, reading h(2^n P) = log max(|num|, den) from the last
brackets; where a bracket does not decide, it builds one pair and runs
the chain again from it.  It is the main
cross-check for the decomposition path; the oracle command, the tests and
the benchmark run it, the sweep does not.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .arithmetic import factorize, isqrt_exact, ord_int
from .curve import (
    Curve,
    Point,
    _doubling_gcd,
    naive_height_after_doubling,
    x_after_doubling,
)
from .errors import DepthExceeded, InfinityPoint
from .local_heights import (
    ArchHeightValue,
    NonArchLocalHeight,
    _bad_places,
    _lambda_inf,
    _local_class,
    _local_terms,
    _place,
    _Place,
)

MAX_DOUBLINGS = 10

_EPS = sys.float_info.epsilon

#: the residue of every prime where the sum identity holds, shared
_ZERO = Fraction(0)


@dataclass(frozen=True, slots=True)
class HeightBreakdown:
    """Canonical height with its place-by-place contributions.

    naive and difference refer to the model the point was given on; the
    canonical height itself is model-independent and is computed on the
    fourth-power-free model.  The part of the denominator of x prime to 2a,
    when above _ITEMIZE_LIMIT, contributes the single aggregate
    bulk_denominator_log = (1/2) log(that part) instead of itemised terms;
    canonical = archimedean + sum(terms) + bulk.
    """

    naive: float
    canonical: float
    archimedean: ArchHeightValue | None
    nonarch_terms: tuple[NonArchLocalHeight, ...]
    difference: float
    error_bound: float
    is_torsion: bool = False
    bulk_denominator_log: float = 0.0


@dataclass(frozen=True)
class DenominatorRecord:
    """x(nP) = A_n / B_n in lowest terms."""

    n: int
    A: int
    B: int
    ord2_B: int


def naive_height(point: Point) -> float:
    """h(P) = log max(|s|, |t|) for x(P) = s/t in lowest terms."""
    if point.is_infinity:
        raise InfinityPoint("naive height of the point at infinity")
    return math.log(max(abs(point.x.numerator), point.x.denominator))


def _to_minimal(curve: Curve, point: Point) -> tuple[Curve, Point, int]:
    minimal, s = curve.minimalize()
    if s == 1 or point.is_infinity:
        return minimal, point, s
    return minimal, Point(point.x / s**2, point.y / s**3), s


#: a coprime-to-2a denominator part beyond this is not itemised prime by prime
_ITEMIZE_LIMIT = 10**18


def height_primes(curve: Curve, point: Point) -> tuple[list[int], int]:
    """(primes, rest): the finite places canonical_height itemises, and the
    part of the denominator of x(P) it leaves unfactored.

    primes are those of 2a, then, when the part of den x prime to 2a is at
    most _ITEMIZE_LIMIT, those of that part (rest = 1); each run is sorted.
    Off 2a, lambda_p = (1/2) ord_p(den x) log p, so rest adds (1/2) log(rest).
    """
    places, rest = _height_places(curve.a, point.x.denominator)
    return [place.prime for place in places], rest


def _height_places(a: int, d: int) -> tuple[tuple[_Place, ...], int]:
    """height_primes as the places of local_heights, for E_a and den x = d:
    those of 2a from the per-curve cache, then those of the itemised part."""
    places = _bad_places(a)
    rest = d
    for place in places:
        p = place.prime
        while rest % p == 0:
            rest //= p
    if 1 < rest <= _ITEMIZE_LIMIT:
        return places + tuple(_place(a, p) for p in sorted(factorize(rest))), 1
    return places, rest


def canonical_height(curve: Curve, point: Point) -> HeightBreakdown:
    """hhat(P) via local decomposition, with a certified error bound.

    P is checked once, on the given model; torsion points (including O)
    report canonical height 0 with an empty breakdown.  Any other point maps
    through (x, y) -> (x/s^2, y/s^3) to the minimal model.
    """
    return _height_on_minimal(curve, point)[0]


def _height_on_minimal(
    curve: Curve, point: Point
) -> tuple[HeightBreakdown, Curve | None, Point | None]:
    """canonical_height with the minimal model and P's image on it, which
    the height was computed on; (None, None) for a torsion point."""
    naive = 0.0 if point.is_infinity else naive_height(point)
    if curve.is_torsion(point):
        return HeightBreakdown(
            naive=naive,
            canonical=0.0,
            archimedean=None,
            nonarch_terms=(),
            difference=naive / 2.0,
            error_bound=0.0,
            is_torsion=True,
        ), None, None
    minimal, q, _ = _to_minimal(curve, point)
    a, m, d = minimal.a, q.x.numerator, q.x.denominator
    arch = _lambda_inf(a, m, d)
    places, rest = _height_places(a, d)
    bulk_log = 0.5 * math.log(rest)  # 0.0 when everything is itemised
    # lambda_p = coefficient * log p, bit for bit as NonArchLocalHeight.value
    locals_ = []
    contributions = [arch.value, bulk_log]
    for p, two, cls, log_p, _ in places:
        coefficient, correction, tag, _, value = _local_terms(*_local_class(two, cls, m, d, p))
        locals_.append(NonArchLocalHeight(p, coefficient, correction, tag))
        contributions.append(value * log_p)
    canonical = math.fsum(contributions)
    # one ulp per floating log evaluation, plus the series tail
    error = arch.tail_bound + _EPS * sum(map(abs, contributions)) + 4 * _EPS * abs(canonical)
    return HeightBreakdown(
        naive=naive,
        canonical=canonical,
        archimedean=arch,
        nonarch_terms=tuple(locals_),
        difference=naive / 2.0 - canonical,
        error_bound=error,
        bulk_denominator_log=bulk_log,
    ), minimal, q


def limit_oracle(curve: Curve, point: Point, doublings: int = 6) -> float:
    """(1/2) h(2^n P) / 4^n: the definition itself, with h(2^n P) from
    curve.naive_height_after_doubling, bit for bit as from the reduced
    pair of x(2^n P).  That doubles x(P) = m/d as a pair of integers in
    lowest terms while it is small, and past that runs the rest of the
    chain on brackets of its top bits and its residues mod powers of
    16 a^4; where a bracket does not decide, it builds one pair and runs
    the chain again from it.  It reads no local height, series or table.

    Independent of the local decomposition; agreement between the two is
    the core correctness check.
    """
    if doublings < 1 or doublings > MAX_DOUBLINGS:
        raise DepthExceeded(f"doublings must be in 1..{MAX_DOUBLINGS}")
    curve._require_nontorsion(point)
    m, d = point.x.numerator, point.x.denominator
    return naive_height_after_doubling(curve.a, m, d, doublings) / (2.0 * 4.0**doublings)


def denominator_sequence(curve: Curve, point: Point, upto: int) -> list[DenominatorRecord]:
    """A_n/B_n = x(nP) in lowest terms for n = 1..upto."""
    curve._require_minimal()
    curve._require_nontorsion(point)
    return _denominator_sequence(curve, point, upto)


def _denominator_sequence(curve: Curve, point: Point, upto: int) -> list[DenominatorRecord]:
    """denominator_sequence of a nontorsion point on a minimal model, both
    checked by the caller."""
    records = []
    current = point
    for n in range(1, upto + 1):
        x = current.x
        records.append(
            DenominatorRecord(n, x.numerator, x.denominator, ord_int(x.denominator, 2))
        )
        current = curve._add_raw(current, point)
    return records


def nonarch_sum_identity(curve: Curve, point: Point) -> tuple[bool, dict[int, Fraction]]:
    """Exact check of the doubled-point identity

        sum_p lambda_p(2P) = log|delta| + (1/12) log|disc|
                             - (1/2) log 2 * [a = 4 mod 16 and ord_2(x(2P)) > 0]

    where x(2P) = alpha^2/delta^2 in lowest terms.  Both sides are compared
    prime by prime as exact rational coefficients of log p.  Returns
    (False, {}) exactly when x(2P) is not a rational square; otherwise the
    verdict and the residues at the primes dividing 2a (all zero on
    success).  At a prime p not dividing 2a both sides are ord_p(delta):
    lambda_p(2P) is (1/2) max(0, -ord_p x(2P)) = ord_p(delta) there, with
    ord_p(disc) = 0 and no correction, so delta is never factored.

    No square root of num or den is taken.  With g the gcd that
    x_after_doubling divides out of x(2P) = num/den, num g = (m^2 - a d^2)^2
    for x(P) = m/d, and on the curve, with x = m/s^2 and y = n/s^3, den g =
    4 m d (m^2 + a d^2) = (2 s n)^2.  So x(2P) is a square exactly when g
    is, (False, {}) means that g is not a square, and 12 ord_p(delta) =
    6 ord_p(den).
    """
    curve._require_minimal()
    curve._require_nontorsion(point)
    return _sum_identity(curve, point.x.numerator, point.x.denominator)


def _sum_identity(curve: Curve, m: int, d: int) -> tuple[bool, dict[int, Fraction]]:
    """nonarch_sum_identity of a nontorsion point with x = m/d in lowest
    terms on a minimal model, both checked by the caller.

    num g = (m^2 - a d^2)^2 and, on the curve, den g = (2 s n)^2, where g
    divides 16 a^4 (see nonarch_sum_identity): (False, {}) means that g is
    not a square, and the only root taken is that of g.

    Each prime's two sides are compared as integers, in 24ths of log p:
    lambda_p(2P) from the memo of local_heights._local_terms, and
    12 ord_p(den) + 2 ord_p(disc) - 12 [indicator], where ord_p(den) is
    the memo key's max(0, -ord_p x(2P)), as den > 0 and gcd(num, den) = 1.
    The primes, their row keys and 2 ord_p(disc) are the curve's places,
    read once per curve (local_heights._bad_places).
    A Fraction is built only for a nonzero residue; the zeros share one.
    """
    a = curve.a
    num, den = x_after_doubling(a, m, d)
    if isqrt_exact(_doubling_gcd(a, m, d)) is None:
        return False, {}
    # x(2P) != 0: only a point of order 4 doubles to (0, 0)
    indicator = a % 16 == 4 and ord_int(num, 2) > 0
    residues: dict[int, Fraction] = {}
    ok = True
    for p, two, cls, _, disc_24ths in _bad_places(a):
        key = _local_class(two, cls, num, den, p)
        lhs = _local_terms(*key)[3]
        rhs = 12 * key[2] + disc_24ths  # key[2] = ord_p(den)
        if p == 2 and indicator:
            rhs -= 12
        if lhs == rhs:
            residues[p] = _ZERO
        else:
            residues[p] = Fraction(lhs - rhs, 24)
            ok = False
    return ok, residues
