"""Property tests of the canonical height over every nontorsion point that
the search finds on the small curves: quadraticity, the parallelogram law
and invariance under change of model.  Each identity is judged against the
error bounds of the heights it combines, weighted by their coefficients.
The x-only duplication map is checked against the group law on the same
points and against the plain rational formula; the naive height of its
image and the logs of the doubling's integers, read from top-bit brackets,
against the built integers, with a count of the calls that build them;
ord_int at 2 against the division loop, the archimedean local height on
the integer pair against the Fraction route, and the membership test
against the plain Fraction equation."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from axheights import curve
from axheights.arithmetic import is_fourth_power_free, ord_int
from axheights.bounds import find_points
from axheights.curve import (
    _BRACKET_BITS,
    Curve,
    Point,
    _doubling_brackets,
    _doubling_logs,
    _exceeds,
    affine,
    naive_height_after_doubling,
    x_after_doubling,
)
from axheights.errors import ZeroInput
from axheights.heights import canonical_height
from axheights.local_heights import DEFAULT_TERMS, _lambda_inf, _step_neg, _z_pos

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


def _plain_height_after_doubling(a: int, m: int, d: int) -> float:
    num, den = x_after_doubling(a, m, d)
    return math.log(max(abs(num), den))


def _exact_logs(a: int, m: int, d: int) -> list[float]:
    """math.log of |m^2 - a d^2|, d^2, |num| and den, the integers built."""
    num, den = x_after_doubling(a, m, d)
    return [math.log(n) for n in (abs(m * m - a * d * d), d * d, abs(num), den)]


class _Counted:
    """x_after_doubling, counting its calls: the doubling's integers are
    built only there, on the exact route and as the brackets' fallback."""

    def __init__(self, monkeypatch):
        self.calls = 0
        monkeypatch.setattr(curve, "x_after_doubling", self)

    def __call__(self, a, m, d):
        self.calls += 1
        return x_after_doubling(a, m, d)


@PROPERTY
@given(NONZERO_A, st.one_of(BIG, st.integers(1, 100)), st.one_of(st.just(1), BIG), st.booleans())
def test_height_after_doubling_matches_the_pair(a, m, d, negative):
    g = math.gcd(m, d)
    m, d = (-m if negative else m) // g, d // g
    assume(m * m + a * d * d != 0)
    got = naive_height_after_doubling(a, m, d)
    assert got.hex() == _plain_height_after_doubling(a, m, d).hex(), (a, m, d)


def _pell_3(k: int) -> tuple[int, int]:
    """(m, d) with m + d sqrt(3) = (2 + sqrt(3))^k, so m^2 - 3 d^2 = 1."""
    m, d = 1, 0
    for _ in range(k):
        m, d = 2 * m + 3 * d, m + 2 * d
    return m, d


def _two_power_multiple_x(a: int, point: Point, k: int) -> tuple[int, int]:
    m, d = _pair(point.x)
    for _ in range(k):
        m, d = x_after_doubling(a, m, d)
    return m, d


@pytest.mark.parametrize(
    "a, m, d, side",
    [
        # x(2^6 P) for P = (1, 2) on a = 3: |x(2^7 P)| < 1, so den is read
        (3, *_two_power_multiple_x(3, affine(1, 2), 6), "den"),
        # x = m/d with m^2 - 3 d^2 = 1, a 115-digit Pell solution: alpha = 1
        (3, *_pell_3(200), "den"),
        (3, *_two_power_multiple_x(3, affine(1, 2), 5), "num"),
        (-17, *_pair(Curve(-17).multiply(7, affine(-1, 4)).x), "num"),
        (-10**40 - 3, -(10**250) - 7, 3**400, "num"),
    ],
)
def test_height_after_doubling_reads_one_side(a, m, d, side, monkeypatch):
    # the brackets, taken at every size here, pick the side h reads and
    # decide its log, so the pair is never built
    num, den = x_after_doubling(a, m, d)
    assert (abs(num) > den) == (side == "num")
    expected = _plain_height_after_doubling(a, m, d)
    monkeypatch.setattr(curve, "_BRACKET_BITS", 0)
    num_b, den_b = _doubling_brackets(a, m, d)[2:]
    assert _exceeds(num_b, den_b) if side == "num" else _exceeds(den_b, num_b)
    built = _Counted(monkeypatch)
    assert naive_height_after_doubling(a, m, d).hex() == expected.hex()
    assert built.calls == 0


def _convergents(x: Fraction):
    """The continued-fraction convergents of x."""
    h0, h1, k0, k1 = 0, 1, 1, 0
    while True:
        q = x.numerator // x.denominator
        h0, h1, k0, k1 = h1, q * h1 + h0, k1, q * k1 + k0
        yield Fraction(h1, k1)
        if x == q:
            return
        x = 1 / (x - q)


@pytest.mark.parametrize(
    "a, lo, hi", [(3, 5, 6), (3, 0, 1), (3, -6, -5), (7, 1, 2), (10**6 + 3, 1045, 1046)]
)
def test_height_after_doubling_near_a_tie(a, lo, hi, monkeypatch):
    # a convergent m/d with an 80-digit-plus d of the real root in [lo, hi]
    # of (x^2 - a)^2 = 4|x(x^2 + a)|, where num and |den| agree to about 160
    # digits, so their brackets, taken at every size here, overlap and the
    # pair is built once
    sign = 1 if lo >= 0 else -1

    def f(x: Fraction) -> Fraction:
        return (x * x - a) ** 2 - 4 * sign * x * (x * x + a)

    lo, hi = Fraction(lo), Fraction(hi)
    assert (f(lo) > 0) != (f(hi) > 0)
    for _ in range(700):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if (f(mid) > 0) == (f(lo) > 0) else (lo, mid)
    x = next(c for c in _convergents(lo) if c.denominator > 10**80)
    m, d = _pair(x)
    expected = _plain_height_after_doubling(a, m, d)
    monkeypatch.setattr(curve, "_BRACKET_BITS", 0)
    num_b, den_b = _doubling_brackets(a, m, d)[2:]
    assert not _exceeds(num_b, den_b) and not _exceeds(den_b, num_b)
    built = _Counted(monkeypatch)
    assert naive_height_after_doubling(a, m, d).hex() == expected.hex()
    assert built.calls == 1


@pytest.mark.parametrize(
    "a, m, d",
    [
        (3, 0, 1), (-4, 2, 1), (-4, -2, 1), (-9 * 10**6, 3000, 1),
        (-(10**250 + 7) ** 2, 10**250 + 7, 1),
    ],
)
def test_height_after_doubling_at_infinity(a, m, d):
    # m = 0 or m^2 + a d^2 = 0: x(2P) is infinite, for both functions; the
    # last case is past the bracket crossover, where the bracket of
    # m^2 + a d^2 holds 0 and sends it to the exact route
    with pytest.raises(ZeroDivisionError):
        x_after_doubling(a, m, d)
    with pytest.raises(ZeroDivisionError):
        naive_height_after_doubling(a, m, d)


def _ord_by_division(n: int, p: int) -> int:
    e, n = 0, abs(n)
    while n % p == 0:
        n //= p
        e += 1
    return e


@PROPERTY
@given(st.integers(1, 10**5000), st.integers(0, 300), st.booleans())
def test_ord_int_at_two_matches_division(u, k, negative):
    n = (-u if negative else u) << k
    assert ord_int(n, 2) == _ord_by_division(n, 2) == k + _ord_by_division(u, 2)


@pytest.mark.parametrize("p", [2, 3])
def test_ord_int_of_zero_raises(p):
    with pytest.raises(ZeroInput):
        ord_int(0, p)
    with pytest.raises(ValueError, match="must be at least 2"):
        ord_int(0, p - 2)


def _log_abs(x: Fraction) -> float:
    """log|x| as the Fraction route takes it: from its numerator and denominator."""
    num = abs(x.numerator)
    return math.log(num) if x.denominator == 1 else math.log(num) - math.log(x.denominator)


def _step_pos(w: float) -> float:
    """One a > 0 step of the reference, which computes z(w) afresh."""
    v = 1.0 - w
    return 4.0 * w * v * (w * w + v * v) / _z_pos(w)


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


@pytest.mark.parametrize("a", [-250, -17, -2, 3, 12, 250])
@pytest.mark.parametrize("k", [300, 330, 400, 1000, 4000])
@pytest.mark.parametrize("offset, d", [(1, 1), (7, 3**5)])
def test_lambda_inf_past_underflow(a, k, offset, d):
    # from about 324 digits t (a < 0) or w (a > 0) underflows to 0.0 at the
    # start: the Fraction route breaks there, _lambda_inf runs every term on
    # 0.0; k = 300 is a control that does not underflow
    m = 10**k + offset
    got = _lambda_inf(a, m, d)
    assert got.value.hex() == fraction_lambda_inf(a, Fraction(m, d)).hex()
    assert got.terms_used == DEFAULT_TERMS


def _multiples(a: int, point: Point):
    """kP for k = 1, 2, ... while x(kP) has at most 250 digits."""
    multiple = point
    while max(abs(multiple.x.numerator), multiple.x.denominator) < 10**250:
        yield multiple
        multiple = Curve(a).add(multiple, point)


MULTIPLES = [(a, multiple) for a, point in POINTS for multiple in _multiples(a, point)]


#: sizes on both sides of the bracket crossover, up to 4,000 bits
SIZES = st.one_of(
    st.integers(1, 2 ** (_BRACKET_BITS - 1)),
    st.integers(2 ** (_BRACKET_BITS - 1), 2 ** (_BRACKET_BITS + 100)),
    st.integers(1, 2**4000),
)


@PROPERTY
@given(NONZERO_A, SIZES, st.one_of(st.just(1), SIZES), st.booleans())
def test_doubling_logs_match_the_built_integers(a, m, d, negative):
    g = math.gcd(m, d)
    m, d = (-m if negative else m) // g, d // g
    assume(m * m + a * d * d != 0 and m * m - a * d * d != 0)
    logs = _doubling_logs(a, m, d)
    assert [v.hex() for v in logs] == [v.hex() for v in _exact_logs(a, m, d)], (a, m, d)
    got = naive_height_after_doubling(a, m, d)
    assert got.hex() == _plain_height_after_doubling(a, m, d).hex(), (a, m, d)
    if a < 0 or m >= 0:  # no real point has x < 0 on a > 0
        value = _lambda_inf(a, m, d).value
        assert value.hex() == fraction_lambda_inf(a, Fraction(m, d)).hex(), (a, m, d)


def test_doubling_logs_at_a_rounding_midpoint(monkeypatch):
    # d^2 lies within 2d of (2^53 + 1) 2^1600, halfway between two doubles,
    # and so well inside its bracket, whose ends round apart: that log is
    # left open and the integers are built, once per call
    d = math.isqrt((2**53 + 1) << 1600)
    a, m = -17, d + 1
    lo, hi, _ = _doubling_brackets(a, m, d)[1]
    assert float(lo) != float(hi)
    expected = _exact_logs(a, m, d)
    reference = fraction_lambda_inf(a, Fraction(m, d))
    built = _Counted(monkeypatch)
    assert [v.hex() for v in _doubling_logs(a, m, d)] == [v.hex() for v in expected]
    assert built.calls == 1
    assert _lambda_inf(a, m, d).value.hex() == reference.hex()
    assert built.calls == 2


def _bits(m: int, d: int) -> int:
    return max(m.bit_length(), d.bit_length())


def test_small_inputs_never_enter_the_brackets(monkeypatch):
    small = [(a, *_pair(p.x)) for a, p in MULTIPLES if _bits(*_pair(p.x)) < _BRACKET_BITS]
    assert len(small) > 100
    expected = [(_plain_height_after_doubling(a, m, d), _exact_logs(a, m, d)) for a, m, d in small]
    cut = []
    monkeypatch.setattr(curve, "_cut", lambda *bracket: cut.append(bracket))
    built = _Counted(monkeypatch)
    for (a, m, d), (height, logs) in zip(small, expected):
        assert naive_height_after_doubling(a, m, d).hex() == height.hex()
        assert [v.hex() for v in _doubling_logs(a, m, d)] == [v.hex() for v in logs]
    assert not cut and built.calls == 2 * len(small)


def _large_inputs():
    """(a, m, d) above the crossover: multiples from the bank, x(2^k P) for
    P = (-1, 4) on a = -17 and P = (1, 2) on a = 3, pairs whose gcd g is
    about 2^300 (a = -q^3 or q^3 and q^2 | m, so q^5 | g), and random pairs
    with both signs of a and m, d = 1 and d large."""
    out = [(a, *_pair(p.x)) for a, p in MULTIPLES if _bits(*_pair(p.x)) >= _BRACKET_BITS]
    for a, point in ((-17, affine(-1, 4)), (3, affine(1, 2))):
        out += [(a, *_two_power_multiple_x(a, point, k)) for k in range(5, 9)]
    q = 2**61 - 1
    out += [(sign * q**3, q * q * (3**500 + 2), 5**400) for sign in (-1, 1)]
    rng = random.Random(2027)
    for _ in range(200):
        a = rng.choice([-1, 1]) * rng.choice([rng.randint(1, 60), rng.getrandbits(200) + 1])
        m = rng.choice([-1, 1]) * (rng.getrandbits(rng.randint(_BRACKET_BITS, 4000)) | 1)
        d = rng.choice([1, rng.getrandbits(rng.randint(1, 4000)) | 1])
        g = math.gcd(m, d)
        out.append((a, m // g, d // g))
    return out


def test_large_inputs_never_build_the_integers(monkeypatch):
    large = [(a, m, d) for a, m, d in _large_inputs() if _bits(m, d) >= _BRACKET_BITS]
    assert len(large) > 200
    expected = [(_plain_height_after_doubling(a, m, d), _exact_logs(a, m, d)) for a, m, d in large]
    built = _Counted(monkeypatch)
    for (a, m, d), (height, logs) in zip(large, expected):
        assert naive_height_after_doubling(a, m, d).hex() == height.hex(), (a, m, d)
        assert [v.hex() for v in _doubling_logs(a, m, d)] == [v.hex() for v in logs], (a, m, d)
        if a < 0:
            _lambda_inf(a, m, d)
    assert built.calls == 0


@st.composite
def on_curve(draw):
    """(a, P) with P on y^2 = x^3 + a x: a bank multiple, (0, 0), a point
    (+-r, 0) on a = -r^2 or (2t^2, +-4t^3) on a = 4t^4, carried to the
    model a s^4 by (x, y) -> (s^2 x, s^3 y)."""
    kind = draw(st.sampled_from(["multiple", "origin", "two-torsion", "four-torsion"]))
    if kind == "multiple":
        a, point = draw(st.sampled_from(MULTIPLES))
    elif kind == "origin":
        a, point = draw(st.integers(-60, 60).filter(bool)), affine(0, 0)
    elif kind == "two-torsion":
        r = draw(st.integers(1, 30))
        a, point = -r * r, affine(draw(st.sampled_from([r, -r])), 0)
    else:
        t = draw(st.integers(1, 5))
        a, point = 4 * t**4, affine(2 * t * t, draw(st.sampled_from([4, -4])) * t**3)
    s = draw(st.integers(1, 3))
    return a * s**4, Point(point.x * s**2, point.y * s**3)


PERTURBATIONS = {
    "none": lambda x, y: (x, y),
    "y+1": lambda x, y: (x, y + 1),
    "y/3": lambda x, y: (x, y / 3),
    "x+1": lambda x, y: (x + 1, y),
    "x/4": lambda x, y: (x / 4, y),
}


@PROPERTY
@given(on_curve(), st.sampled_from(sorted(PERTURBATIONS)))
def test_contains_matches_fraction_equation(sample, perturbation):
    a, point = sample
    x, y = point.x, point.y
    assert y * y == x**3 + a * x, (a, point)
    x, y = PERTURBATIONS[perturbation](x, y)
    assert Curve(a).contains(Point(x, y)) == (y * y == x**3 + a * x), (a, point, perturbation)
