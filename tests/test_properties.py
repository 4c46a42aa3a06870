"""Property tests of the canonical height over every nontorsion point that
the search finds on the small curves: quadraticity, the parallelogram law
and invariance under change of model.  Each identity is judged against the
error bounds of the heights it combines, weighted by their coefficients.
The x-only duplication map is checked against the group law on the same
points and against the plain rational formula, and the archimedean local
height on the integer pair against the Fraction route."""

import math
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from axheights.arithmetic import is_fourth_power_free
from axheights.bounds import find_points
from axheights.curve import Curve, Point, affine, x_after_doubling
from axheights.heights import canonical_height
from axheights.local_heights import DEFAULT_TERMS, _lambda_inf, _step_neg, _step_pos, _z_pos

#: the nontorsion points of find_points(Curve(a), 12) for each
#: fourth-power-free |a| <= 60 that has one
BY_CURVE = {
    a: points
    for a in range(-60, 61)
    if a != 0 and is_fourth_power_free(a)
    if (points := [p for p in find_points(Curve(a), 12) if not Curve(a).is_torsion(p)])
}
POINTS = [(a, point) for a, points in BY_CURVE.items() for point in points]

PROPERTY = settings(max_examples=300, derandomize=True, deadline=None, database=None)


@st.composite
def point_pairs(draw):
    a = draw(st.sampled_from(list(BY_CURVE)))
    return a, draw(st.sampled_from(BY_CURVE[a])), draw(st.sampled_from(BY_CURVE[a]))


@PROPERTY
@given(st.sampled_from(POINTS), st.integers(2, 7))
def test_quadraticity(sample, n):
    a, point = sample
    curve = Curve(a)
    base = canonical_height(curve, point)
    multiple = canonical_height(curve, curve.multiply(n, point))
    gap = abs(multiple.canonical - n * n * base.canonical)
    assert gap <= multiple.error_bound + n * n * base.error_bound, (a, point, n, gap)


@PROPERTY
@given(point_pairs())
def test_parallelogram_law(sample):
    a, p, q = sample
    curve = Curve(a)
    hp, hq = canonical_height(curve, p), canonical_height(curve, q)
    hsum = canonical_height(curve, curve.add(p, q))
    hdiff = canonical_height(curve, curve.add(p, -q))
    gap = abs(hsum.canonical + hdiff.canonical - 2 * hp.canonical - 2 * hq.canonical)
    error = hsum.error_bound + hdiff.error_bound + 2 * hp.error_bound + 2 * hq.error_bound
    assert gap <= error, (a, p, q, gap)


@PROPERTY
@given(st.sampled_from(POINTS), st.integers(2, 6))
def test_model_invariance(sample, s):
    a, point = sample
    scaled = Point(point.x * s**2, point.y * s**3)
    base = canonical_height(Curve(a), point)
    other = canonical_height(Curve(a * s**4), scaled)
    gap = abs(other.canonical - base.canonical)
    assert gap <= other.error_bound + base.error_bound, (a, point, s, gap)


def _pair(x: Fraction) -> tuple[int, int]:
    return x.numerator, x.denominator


def test_x_only_doubling_matches_group_law():
    for a, point in POINTS:
        assert x_after_doubling(a, *_pair(point.x)) == _pair(Curve(a).double(point).x), (a, point)
    curve, point = Curve(3), affine(1, 2)
    for k in range(1, 8):  # x(2^7 P) has 3,565 digits
        doubled = curve.double(point)
        assert x_after_doubling(3, *_pair(point.x)) == _pair(doubled.x), k
        point = doubled


#: any nonzero a, including ones with a fourth-power factor
NONZERO_A = st.one_of(
    st.integers(-10**6, 10**6), st.integers(-10**40, 10**40), st.integers(-50, 50).map(lambda k: k * 2**8)
).filter(bool)
#: numerators and denominators up to 250 digits, with d = 1 drawn often
BIG = st.integers(1, 10**250)


@PROPERTY
@given(NONZERO_A, st.one_of(BIG, st.integers(1, 100)), st.one_of(st.just(1), BIG), st.booleans())
def test_integer_doubling_core_matches_fraction(a, m, d, negative):
    g = math.gcd(m, d)
    m, d = (-m if negative else m) // g, d // g
    num, den = (m * m - a * d * d) ** 2, 4 * m * d * (m * m + a * d * d)
    assume(den != 0)
    assert x_after_doubling(a, m, d) == _pair(Fraction(num, den))
    x = Fraction(m, d)
    assert x_after_doubling(a, m, d) == _pair((x * x - a) ** 2 / (4 * (x**3 + a * x)))


def _log_abs(x: Fraction) -> float:
    """log|x| as the Fraction route takes it: from its numerator and denominator."""
    num = abs(x.numerator)
    return math.log(num) if x.denominator == 1 else math.log(num) - math.log(x.denominator)


def fraction_lambda_inf(a: int, x: Fraction) -> float:
    """The archimedean local height with x, x^2 - a and x(2P) built as
    Fractions and their logs taken from those, step for step as the integer
    pair route takes them."""
    series = 0.0
    if a < 0:
        first = 0.25 * _log_abs(x * x - a)
        x2 = (x * x - a) ** 2 / (4 * (x**3 + a * x))
        t = math.exp(0.5 * math.log(-a) - _log_abs(x2))
        weight = 0.25
        for _ in range(DEFAULT_TERMS):
            weight *= 0.25
            if t == 0.0:
                break
            series += weight * math.log1p(t * t)
            t = _step_neg(t)
    else:
        if x == 0:
            log_u0, w = 0.0, 1.0
        else:
            lq = _log_abs(x) - 0.5 * math.log(a)
            if lq > 300.0:
                log_u0, w = lq, math.exp(-lq)
            else:
                q = math.exp(lq)
                log_u0, w = math.log1p(q), 1.0 / (1.0 + q)
        first = 0.25 * math.log(a) + 0.5 * log_u0 + 0.125 * math.log(_z_pos(w))
        weight = 0.125
        for _ in range(DEFAULT_TERMS):
            weight *= 0.25
            w = _step_pos(w)
            if w == 0.0:
                break
            series += weight * math.log(_z_pos(w))
    return first + series - _log_abs(Fraction(-64 * a**3)) / 12.0


@PROPERTY
@given(NONZERO_A, st.one_of(BIG, st.integers(0, 100)), st.one_of(st.just(1), BIG), st.booleans())
def test_lambda_inf_matches_fraction_route(a, m, d, negative):
    # x >= 0 for a > 0 (no real point has x < 0 there); x = 0 and x^2 = -a
    # are 2-torsion for a < 0, where x(2P) is infinite
    g = math.gcd(m, d)
    m, d = (-m if negative and a < 0 else m) // g, d // g
    assume(a > 0 or m * (m * m + a * d * d) != 0)
    value = _lambda_inf(a, m, d).value
    assert value.hex() == fraction_lambda_inf(a, Fraction(m, d)).hex(), (a, m, d)
