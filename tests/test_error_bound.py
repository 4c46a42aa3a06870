"""The float error_bound of canonical_height against an mpmath reference.

The reference evaluates the same decomposition at high precision: the
archimedean height by Tate's series, plus the exact local coefficients
times log p, plus (1/2) log of the unfactored rest of the denominator.
Its series runs on the model that lambda_archimedean sums (the curve for
a < 0, the curve translated by sqrt(a) for a > 0), but takes each term
from that model's b-invariants and doubles x(P) itself, not through the
float code's t and w iterations.
"""

import math
import sys
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from axheights.arithmetic import isqrt_exact, log_ratio
from axheights.curve import _BRACKET_BITS, Curve, Point, affine, x_after_doubling
from axheights.families import FAMILIES, family_diff
from axheights.heights import _height_on_minimal, height_primes
from axheights.local_heights import lambda_archimedean

from reference_arithmetic import family_candidates

EPS = sys.float_info.epsilon

#: series terms of the reference: each is at most (1/8) 4^-k log 4 in size,
#: so the dropped tail is below 2e-19
TERMS = 30


def reference_lambda_inf(a: int, x: Fraction) -> mpf:
    """lambda_inf(P) = (1/2) log|x'| + (1/8) sum_k 4^-k log z(2^k P)
    - (1/12) log|disc| at high precision, where x' = x for a < 0 and
    x' = x + sqrt(a) for a > 0."""
    # the extremal families put 2P within about 1/|a| of a 2-torsion point,
    # where the doubling's denominator 4y^2 loses that many digits
    with mp.workdps(20 + len(str(abs(a)))):
        if a < 0:
            shift, b4, b6, b8 = 0, 2 * a, 0, -a * a
        else:
            shift = mp.sqrt(a)
            b4, b6, b8 = 8 * a, -8 * a * shift, 8 * a * a
        x = mpf(x.numerator) / x.denominator
        total = mp.log(abs(x + shift)) / 2
        for k in range(TERMS):
            w = 1 / (x + shift)
            z = 1 - w * w * (b4 + w * (2 * b6 + w * b8))  # 1 - b4/x'^2 - 2b6/x'^3 - b8/x'^4
            total += mp.ldexp(mp.log(z), -3 - 2 * k)
            s = x * x
            x = (s - a) ** 2 / mp.ldexp(x * (s + a), 2)  # x(2P); the shift commutes
        return total - mp.log(64 * abs(a) ** 3) / 12


def reference_height(curve: Curve, point: Point):
    """canonical_height's breakdown of the point, and the reference value."""
    bd, minimal, q = _height_on_minimal(curve, point)
    _, rest = height_primes(minimal, q)
    with mp.workdps(30):
        value = reference_lambda_inf(minimal.a, q.x) + mp.log(rest) / 2
        for t in bd.nonarch_terms:
            value += mpf(t.coefficient.numerator) / t.coefficient.denominator * mp.log(t.prime)
    return bd, value


def _misses(points):
    """(a, x, |error| / error_bound) of each point whose float error
    exceeds its error_bound."""
    out = []
    for curve, point in points:
        bd, value = reference_height(curve, point)
        error = abs(mpf(bd.canonical) - value)
        if error > bd.error_bound:
            out.append((curve.a, str(point.x), float(error / bd.error_bound)))
    return out


def test_error_bound_holds_on_the_acceptance_sweep(acceptance_sweep):
    points = [
        (Curve(row.a), Point(Fraction(row.x), Fraction(row.y))) for row in acceptance_sweep.rows
    ]
    assert len(points) > 1000
    assert _misses(points) == []


#: family points whose float error exceeds error_bound: lambda_inf adds
#: (1/4) log|x^2 - a| and -(1/12) log|disc|, about 32 each here, to reach
#: 0.18, and error_bound counts one rounding of 0.18, not of the two logs
#: (1.16 times the bound; ROADMAP item 6)
_KNOWN_MISSES = {("lang-neg-3", 2)}


def test_error_bound_holds_on_family_points():
    candidates = [
        c for c in family_candidates() if (c.family, c.parameter) not in _KNOWN_MISSES
    ]
    assert len(candidates) > 60
    assert _misses([(Curve(c.a), c.point) for c in candidates]) == []


@pytest.mark.xfail(strict=True, reason="error_bound misses the cancellation inside lambda_inf")
@pytest.mark.parametrize("family, param", sorted(_KNOWN_MISSES))
def test_error_bound_known_misses(family, param):
    candidate = FAMILIES[family](param)
    assert _misses([(Curve(candidate.a), candidate.point)]) == []


@pytest.mark.parametrize("a, xy", [(3, (1, 2)), (-2, (-1, 1)), (-17, (-1, 4))])
def test_error_bound_holds_on_multiples(a, xy):
    # up to 100-digit x; from 9P on a = -2 the denominator is left unfactored
    curve = Curve(a)
    point = affine(*xy)
    assert _misses([(curve, curve.multiply(k, point)) for k in range(2, 11)]) == []


@pytest.mark.parametrize("a, x", [(-17, -1), (3, 1), (-2, -1)])
def test_error_bound_holds_on_huge_doublings(a, x):
    # 2^k P for k = 4..8 of P = (-1, 4), (1, 2), (-1, 1): x from 56 to
    # 33,362 digits, on both sides of _BRACKET_BITS, where _lambda_inf for
    # a < 0 stops building its logs' integers.  x comes from the x-only map
    # and y from isqrt; str(x) would pass the default int/str digit limit,
    # so a miss is reported by k
    m, d = x, 1
    bits, ratios = {}, {}
    for k in range(1, 9):
        m, d = x_after_doubling(a, m, d)
        if k < 4:
            continue
        y = Fraction(isqrt_exact(m * (m * m + a * d * d)), isqrt_exact(d) ** 3)
        bd, value = reference_height(Curve(a), Point(Fraction(m, d), y))
        bits[k] = max(m.bit_length(), d.bit_length())
        ratios[k] = float(abs(mpf(bd.canonical) - value) / bd.error_bound)
    assert bits[4] < _BRACKET_BITS <= bits[8]
    assert {k: r for k, r in ratios.items() if r > 1} == {}


@pytest.mark.parametrize("a1, underflows", [(10**131, False), (10**330, True)],
                         ids=["a1=1e131", "a1=1e330"])
def test_lambda_archimedean_on_huge_x(a1, underflows):
    # x = a/2 with x/sqrt(a) beyond e^300: _translated_start takes log q
    # itself, and at 10^330 w = e^-log q underflows to 0, which ends the
    # series at once.  Factoring 2a could exceed the budget, so only
    # lambda_inf is compared, against the error bound a height with this
    # one contribution would get.
    candidate = family_diff("upper", a1)
    a, x = candidate.a, candidate.point.x
    lq = log_ratio(x.numerator, x.denominator) - 0.5 * math.log(a)
    assert lq > 300.0
    assert (math.exp(-lq) == 0.0) == underflows
    value = lambda_archimedean(Curve(a), candidate.point)
    reference = reference_lambda_inf(a, x)
    error = abs(mpf(value.value) - reference)
    assert error <= value.tail_bound + 5 * EPS * abs(value.value)
