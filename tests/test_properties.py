"""Property tests of the canonical height over every nontorsion point that
the search finds on the small curves: quadraticity, the parallelogram law
and invariance under change of model.  Each identity is judged against the
error bounds of the heights it combines, weighted by their coefficients.
The x-only duplication map is checked against the group law on the same
points, and its integer core against the plain rational formula."""

import math
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from axheights.arithmetic import is_fourth_power_free
from axheights.bounds import find_points
from axheights.curve import Curve, Point, _x_after_doubling_ints, affine, x_after_doubling
from axheights.heights import canonical_height

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


def test_x_only_doubling_matches_group_law():
    for a, point in POINTS:
        assert x_after_doubling(a, point.x) == Curve(a).double(point).x, (a, point)
    curve, point = Curve(3), affine(1, 2)
    for k in range(1, 8):  # x(2^7 P) has 3,565 digits
        doubled = curve.double(point)
        assert x_after_doubling(3, point.x) == doubled.x, k
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
    expected = Fraction(num, den)
    assert _x_after_doubling_ints(a, m, d) == (expected.numerator, expected.denominator)
    x = Fraction(m, d)
    assert x_after_doubling(a, x) == (x * x - a) ** 2 / (4 * (x**3 + a * x))
