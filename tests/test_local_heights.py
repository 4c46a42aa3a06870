import math
import random
from fractions import Fraction

import pytest

from axheights import curve, local_heights
from axheights.arithmetic import is_fourth_power_free, ord_int
from axheights.curve import _BRACKET_BITS, Curve, Point, affine
from axheights.errors import NotMinimal, NotOnCurve, NotPrime, TorsionPoint, ZeroX
from axheights.families import FAMILIES
from axheights.heights import canonical_height
from axheights.local_heights import (
    _ODD,
    _TWO_ADIC,
    _lambda_inf,
    _lambda_p,
    _translated_start,
    _z_pos,
    bad_primes,
    classify_reduction,
    lambda_archimedean,
    lambda_nonarch,
    tail_bound,
    z_value,
)

from reference_arithmetic import ord_p

LOG2 = math.log(2.0)


_STEP_6 = "step 6: cubic T^3 + (a/p^2)T separable; (-a/p^2 | p) = "
_CLASSIFY_EXAMPLES = [
    # one a per reduction class at 2, keyed by a mod 64
    (1, 2, "II", 1, 6, 3, "step 3: a6' = a+1 = 2*odd"),
    (3, 2, "III", 2, 6, 4, "step 4: b8' = 12 mod 16"),
    (2, 2, "III", 2, 9, 4, "step 4: ord(b8) = 2"),
    (8, 2, "III*", 2, 15, 9, "step 9: ord(a) = 3"),
    (12, 2, "I2*", 2, 12, 7, "step 7: quadratic irreducible"),
    (44, 2, "I2*", 2, 12, 7, "step 7: quadratic irreducible"),
    (28, 2, "I2*", 4, 12, 7, "step 7: quadratic splits"),
    (60, 2, "I2*", 4, 12, 7, "step 7: quadratic splits"),
    (20, 2, "I3*", 2, 12, 7, "step 7: Y^2+Y+1 at depth 3"),
    (36, 2, "I3*", 2, 12, 7, "step 7: Y^2+Y+1 at depth 3"),
    (4, 2, "I3*", 4, 12, 7, "step 7: Y^2+Y at depth 3"),
    (52, 2, "I3*", 4, 12, 7, "step 7: Y^2+Y at depth 3"),
    # one per e = ord_p(a) at an odd p, both Legendre signs for I0*
    (3, 5, "I0", 1, 0, 1, "step 1: good reduction"),
    (1, 3, "I0", 1, 0, 1, "step 1: good reduction"),
    (3, 3, "III", 2, 3, 4, "step 4: ord(b8) = 2"),
    (7, 7, "III", 2, 3, 4, "step 4: ord(b8) = 2"),
    (18, 3, "I0*", 4, 6, 6, _STEP_6 + "1"),
    (9, 3, "I0*", 2, 6, 6, _STEP_6 + "-1"),
    (-50, 5, "I0*", 2, 6, 6, _STEP_6 + "-1"),
    (27, 3, "III*", 2, 9, 9, "step 9: ord(a) = 3"),
]


@pytest.mark.parametrize(
    "a,p,kodaira,tamagawa,ord_delta,tate_step,trace",
    _CLASSIFY_EXAMPLES,
    ids=["-".join(map(str, row[:4])) for row in _CLASSIFY_EXAMPLES],
)
def test_classify_examples(a, p, kodaira, tamagawa, ord_delta, tate_step, trace):
    r = classify_reduction(Curve(a), p)
    assert (r.prime, r.kodaira, r.tamagawa) == (p, kodaira, tamagawa)
    assert (r.ord_delta, r.tate_step, r.trace) == (ord_delta, tate_step, trace)


def test_classify_requires_minimal():
    with pytest.raises(NotMinimal):
        classify_reduction(Curve(48), 2)


def test_non_prime_raises_not_prime():
    for p in (9, 1, 0, 4, -3):
        with pytest.raises(NotPrime, match=f"^{p} is not prime$"):
            classify_reduction(Curve(12), p)
    for p in (15, 1, 0, 4, -3):
        with pytest.raises(NotPrime, match=f"^{p} is not prime$"):
            lambda_nonarch(Curve(3), affine(1, 2), p)


def test_classification_totality_small():
    # every fourth-power-free |a| <= 500 classifies at every bad prime, with
    # the row keyed exactly by ord_p(a) (odd p) or the 2-adic residue of a
    for a in range(-500, 501):
        if a == 0 or not is_fourth_power_free(a):
            continue
        curve = Curve(a)
        for p in bad_primes(curve):
            r = classify_reduction(curve, p)
            assert r.tamagawa in (1, 2, 4)
            assert r.ord_delta >= 1
            if p > 2:
                e = 0
                aa = abs(a)
                while aa % p == 0:
                    aa //= p
                    e += 1
                expected = {0: "I0", 1: "III", 2: "I0*", 3: "III*"}[e]
                assert r.kodaira == expected
            else:
                if a % 4 == 1:
                    assert r.kodaira == "II"
                elif a % 4 in (2, 3):
                    assert r.kodaira == "III"
                elif a % 8 == 0:
                    assert r.kodaira == "III*"
                elif a % 16 == 12:
                    assert r.kodaira == "I2*"
                else:
                    assert r.kodaira == "I3*"


def test_kodaira_i0_iff_good():
    assert classify_reduction(Curve(3), 5).kodaira == "I0"
    assert classify_reduction(Curve(3), 3).kodaira != "I0"


@pytest.mark.parametrize(
    "a,point,p,coefficient",
    [
        (3, (1, 2), 3, Fraction(1, 4)),
        (3, (1, 2), 5, Fraction(0)),
        (3, (Fraction(1, 4), Fraction(-7, 8)), 2, Fraction(3, 2)),
        (3, (1, 2), 2, Fraction(1, 4)),
    ],
)
def test_lambda_nonarch_examples(a, point, p, coefficient):
    got = lambda_nonarch(Curve(a), affine(*point), p)
    assert got.coefficient == coefficient


def test_lambda_nonarch_good_prime_tag():
    term = lambda_nonarch(Curve(3), affine(1, 2), 5)
    assert term.correction_tag == "otherwise"
    assert term.correction == 0


def test_lambda_nonarch_rejects_torsion():
    with pytest.raises(TorsionPoint):
        lambda_nonarch(Curve(4), affine(2, 4), 2)
    with pytest.raises(TorsionPoint):
        lambda_nonarch(Curve(5), affine(0, 0), 5)


def test_lambda_nonarch_requires_minimal():
    with pytest.raises(NotMinimal):
        lambda_nonarch(Curve(48), affine(4, 16), 2)


def test_doubled_points_lose_corrections():
    # at a doubled point the odd-prime corrections always vanish, and the
    # only possible 2-adic correction is (1/2) log 2 in the a = 4 mod 16
    # branch
    from axheights.heights import height_primes

    cases = [
        (3, affine(1, 2)),
        (-5, affine(5, 10)),
        (-12, affine(6, 12)),       # a = 4 mod 16, ord_2(x(2P)) > 0
        (56628, affine(198, 4356)),  # a = 4 mod 16, ord_2(x(2P)) > 0
        (20, affine(4, 12)),
    ]
    seen_half = False
    for a, p in cases:
        curve = Curve(a)
        q = curve.double(p)
        primes, rest = height_primes(curve, q)
        assert rest == 1  # every prime of the denominator is itemised
        for prime in primes:
            term = lambda_nonarch(curve, q, prime)
            if prime == 2:
                assert term.correction in (0, Fraction(1, 2))
                if term.correction != 0:
                    assert a % 16 == 4
                    seen_half = True
            else:
                assert term.correction == 0
                assert term.correction_tag == "otherwise"
    assert seen_half


# frozen 50-digit reference values for the truncated Tate series
_ARCH_REFERENCE = [
    (3, (1, 2), -0.19734867128342457),
    (-2, (-1, 1), -0.21550586943146830),
    (56628, (198, 4356), -0.12954201796548496),
    (-5, (5, 10), 0.14447756208228856),
    (-12, (6, 12), 0.03865220044180143),
]


@pytest.mark.parametrize("a,point,reference", _ARCH_REFERENCE)
def test_lambda_archimedean_reference_values(a, point, reference):
    got = lambda_archimedean(Curve(a), affine(*point))
    assert abs(got.value - reference) < 1e-12
    assert got.terms_used == 40


def test_lambda_archimedean_tail_bound():
    got = lambda_archimedean(Curve(3), affine(1, 2))
    assert got.tail_bound == tail_bound(40)
    assert tail_bound(30) <= math.log(4) / (24 * 4**30)
    assert tail_bound(30) < 1e-18
    assert tail_bound(40) < 1e-22


def test_lambda_archimedean_rejects_torsion():
    with pytest.raises(TorsionPoint):
        lambda_archimedean(Curve(4), affine(2, 4))


def test_lambda_archimedean_vs_limit_oracle():
    # oracle: limit-definition height minus the exact finite-place terms
    from axheights.heights import limit_oracle

    curve = Curve(-2)
    point = affine(-1, 1)
    hhat = limit_oracle(curve, point, 8)
    finite = sum(
        lambda_nonarch(curve, point, p).value for p in (2,)
    )
    got = lambda_archimedean(curve, point).value
    # the limit itself carries O(4^-8) truncation error; see the frozen
    # reference values above for the tight check
    assert abs(got - (hhat - finite)) < 1e-4


def test_z_value_examples():
    assert abs(z_value(Curve(-2), Point(Fraction(10), Fraction(0))) - 1.0404) < 1e-12
    assert _z_pos(0.5) == 0.5  # translated-model minimum at x' = 2 sqrt(a)
    assert _z_pos(1.0) == 1.0
    # x = 2 on a = 4 sits exactly at the translated minimum x' = 2 sqrt(a)
    assert z_value(Curve(4), affine(2, 4)) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(ZeroX):
        z_value(Curve(-2), Point(Fraction(0), Fraction(0)))
    # a tiny |x| on a < 0: a/x^2 overflows a float, or its square does
    for x in (Fraction(-1, 10**160), Fraction(-1, 10**100)):
        assert z_value(Curve(-2), Point(x, Fraction(0))) == math.inf


@pytest.mark.parametrize("a, x", [(4, -1), (4, -2), (1, Fraction(-1, 3)), (10**30, -10**40)])
def test_z_value_rejects_negative_x_for_positive_a(a, x):
    # x^3 + a x < 0 for x < 0 < a, so no real point has such an x; at
    # x = -sqrt(a) the translated w = sqrt(a)/(x + sqrt(a)) is undefined
    with pytest.raises(NotOnCurve, match="no real point"):
        z_value(Curve(a), Point(Fraction(x), Fraction(0)))


def test_z_range_negative_a():
    rng = random.Random(2024)
    for _ in range(500):
        a = -rng.randint(2, 10**6)
        r = math.isqrt(-a)
        x = Fraction(r + 1) + Fraction(rng.randint(0, 10**6), rng.randint(1, 1000))
        z = z_value(Curve(a), Point(x, Fraction(0)))
        assert 1.0 < z < 4.0


def test_z_range_positive_a():
    rng = random.Random(2025)
    for _ in range(500):
        a = rng.randint(1, 10**6)
        x = Fraction(rng.randint(0, 10**9), rng.randint(1, 10**4))
        z = z_value(Curve(a), Point(x, Fraction(0)))
        assert 0.5 - 1e-9 <= z <= 1.0 + 1e-9


def test_correction_case_coverage():
    # every correction case of the reduction table fires on some small curve,
    # and every correcting class also has a point where nothing fires; each
    # full height at such a point is validated against the limit oracle
    # inside the theorem envelope (a wrong branch is a >= (1/8)log 2 error,
    # three orders of magnitude above the envelope)
    from axheights.heights import canonical_height, limit_oracle

    none = ("otherwise", Fraction(0))
    t12 = "a = 12,20,36,44 mod 64, ord_2(x) > 0"
    t4 = "a = 4,28,52,60 mod 64, ord_2(x) > 1"
    witnesses = [  # ((Kodaira, Tamagawa) at p, a, point, p, (tag, correction))
        (("III", 2), 3, affine(1, 2), 2, ("a = 2,3 mod 4, ord_2(x+a) > 0", Fraction(1, 4))),
        (("III", 2), 3, affine(Fraction(1, 4), Fraction(-7, 8)), 2, none),
        (("III", 2), -2, affine(2, 2), 2, ("a = 2,3 mod 4, ord_2(x+a) > 0", Fraction(1, 4))),
        (("III", 2), -2, affine(-1, 1), 2, none),
        (("III*", 2), -184, affine(Fraction(-184, 25), Fraction(3864, 125)), 2,
         ("a = 0 mod 8, ord_2(x) > 0", Fraction(3, 4))),
        (("III*", 2), 8, affine(1, 3), 2, none),
        (("I2*", 2), -244, affine(Fraction(-324, 25), Fraction(3924, 125)), 2,
         (t12, Fraction(1, 2))),
        (("I2*", 2), -20, affine(5, 5), 2, none),
        (("I2*", 4), -132, affine(12, 12), 2, (t4, Fraction(1, 2))),
        (("I2*", 4), 28, affine(2, 8), 2, ("a = 28,60 mod 64, ord_2(x) = 1", Fraction(3, 4))),
        (("I2*", 4), -36, affine(-3, 9), 2, none),
        (("I3*", 2), 20, affine(4, 12), 2, (t12, Fraction(1, 2))),
        (("I3*", 2), -156, affine(13, 13), 2, none),
        (("I3*", 4), -12, affine(4, 4), 2, (t4, Fraction(1, 2))),
        (("I3*", 4), 68, affine(34, 204), 2, ("a = 4,52 mod 64, ord_2(x) = 1", Fraction(7, 8))),
        (("I3*", 4), -12, affine(-3, 3), 2, none),
        (("II", 1), -15, affine(4, 2), 2, none),
        (("III", 2), -249, affine(Fraction(-83, 81), Fraction(11620, 729)), 83,
         ("p^1||a, ord_p(x) > 0", Fraction(1, 4))),
        (("III", 2), 3, affine(1, 2), 3, none),
        (("I0*", 4), -225, affine(-9, 36), 3, ("p^2||a, ord_p(x) > 0", Fraction(1, 2))),
        (("I0*", 4), -25, affine(-4, 6), 5, none),
        (("III*", 2), -250, affine(Fraction(250, 9), Fraction(3250, 27)), 5,
         ("p^3||a, ord_p(x) > 0", Fraction(3, 4))),
        (("III*", 2), -54, affine(-2, 10), 3, none),
    ]
    for reduction, a, point, p, (tag, correction) in witnesses:
        curve = Curve(a)
        assert curve.contains(point), (a, point)
        r = classify_reduction(curve, p)
        assert (r.kodaira, r.tamagawa) == reduction, (a, p)
        term = lambda_nonarch(curve, point, p)
        assert (term.correction_tag, term.correction) == (tag, correction), (a, point, p)
        four_terms = (Fraction(max(0, -ord_p(point.x, p)), 2) + Fraction(r.ord_delta, 12)
                      - term.correction)
        assert term.coefficient == four_terms, (a, point, p)
        bd = canonical_height(curve, point)
        envelope = (0.25 * math.log(abs(a)) + 0.6) / 4.0**6
        assert abs(bd.canonical - limit_oracle(curve, point, 6)) < envelope


def _x_with_ord(p: int, k: int) -> tuple[int, int]:
    """x = m/d in lowest terms with ord_p(x) = k, the unit part 7/11 or 5/13."""
    m, d = (7, 11) if p != 7 and p != 11 else (5, 13)
    return (m * p**k, d) if k >= 0 else (m, d * p**-k)


def _local_cases():
    """(a, m, d, p): every class at 2 by a mod 64 and every e = ord_p(a) at
    p = 3 and 5, with ord_p(x) in -3..3 and, for III at 2, x + a of every
    2-adic valuation 1..3 and x + a = 0."""
    for r in _TWO_ADIC:
        for a in (r, r - 64):
            yield from ((a, *_x_with_ord(2, k), 2) for k in range(-3, 4))
            if a % 4 in (2, 3):
                for s in (2, 4, 6, 8, 24):  # x + a = s, of 2-adic valuation 1, 2, 1, 3, 3
                    if s != a:
                        yield a, s - a, 1, 2
                yield a, -a, 1, 2
    for p in (3, 5):
        for e in range(len(_ODD)):
            for a in (p**e * 2, -(p**e) * 7):
                yield from ((a, *_x_with_ord(p, k), p) for k in range(-3, 4))


def test_lambda_p_builds_one_fraction():
    # the coefficient built as one Fraction equals (1/12)(6 max(0, -ord x)
    # + ord disc) minus the correction, and its value is the float of that
    # coefficient times log p, bit for bit
    seen = set()
    for a, m, d, p in _local_cases():
        term = _lambda_p(a, m, d, p)
        ord_x = ord_int(m, p) - ord_int(d, p)
        expected = Fraction(6 * max(0, -ord_x) + ord_int(-64 * a**3, p), 12) - term.correction
        assert term.coefficient == expected, (a, m, d, p)
        assert term.value.hex() == (float(expected) * math.log(p)).hex(), (a, m, d, p)
        seen.add(term.correction_tag)
    tags = {tag for row in (*_TWO_ADIC.values(), *_ODD) for _, _, tag in row.corrections}
    assert seen == tags | {"otherwise"}


def test_lambda_inf_w_escape_stays_at_its_step(monkeypatch):
    # on lang-pos-7 at a1 = 10^6 rounding takes w to 1.0000000000000002 in
    # one step; w then turns negative and grows until z(w) < 0 and log z
    # raises ValueError (benchmarks/selftest.py asserts that failure).  A
    # plain re-run that computes z(w) afresh at each step pins where it
    # happens: the series evaluates z once per step and fails at the same w
    cand = FAMILIES["lang-pos-7"](10**6)
    a, m, d = cand.a, cand.point.x.numerator, cand.point.x.denominator
    w = _translated_start(a, m, d)[1]
    steps = 0
    while _z_pos(w) > 0:
        v = 1.0 - w
        w = 4.0 * w * v * (w * w + v * v) / _z_pos(w)
        steps += 1
    assert steps == 26
    seen = []

    def counted(w):
        seen.append(w)
        return _z_pos(w)

    monkeypatch.setattr(local_heights, "_z_pos", counted)
    with pytest.raises(ValueError):
        _lambda_inf(a, m, d)
    assert len(seen) == steps + 1 and seen[-1] == w


#: multiples kP of P = (-1, 4) on a = -17 on both sides of the bracket
#: crossover (x(21P) is the first past it), up to 300P (45,817 digits); 256P
#: is 2^8 P
_MULTIPLES_K = (*range(1, 41), 50, 64, 89, 100, 128, 150, 200, 256, 300)


def test_canonical_height_matches_the_exact_route(monkeypatch):
    # lambda_inf reads its four logs from brackets past the crossover; with
    # the crossover out of reach it builds the integers, as below it
    c, base = Curve(-17), affine(-1, 4)
    points = [c.multiply(k, base) for k in _MULTIPLES_K]
    sizes = [max(q.x.numerator.bit_length(), q.x.denominator.bit_length()) for q in points]
    assert min(sizes) < _BRACKET_BITS <= sizes[_MULTIPLES_K.index(21)]
    got = [canonical_height(c, q).canonical.hex() for q in points]
    monkeypatch.setattr(curve, "_BRACKET_BITS", math.inf)
    expected = [canonical_height(c, q).canonical.hex() for q in points]
    assert got == expected


def test_arch_range_off_identity_component():
    # for a <= -2 and a point off the identity component, the archimedean
    # part of the height difference lies in the stated two-sided range
    cases = [(-2, (-1, 1)), (-6, (-2, 2)), (-12, (-2, 4)), (-5, (-1, 2))]
    for a, pt in cases:
        curve = Curve(a)
        point = affine(*pt)
        assert curve.contains(point)
        assert point.x**2 < -a  # off the identity component
        lam = lambda_archimedean(curve, point).value
        diff = (
            0.5 * math.log(max(1.0, abs(float(point.x))))
            - math.log(abs(curve.discriminant)) / 12.0
            - lam
        )
        assert -0.25 * math.log(-a) - 0.5 / math.sqrt(-a) < diff < -0.25 * LOG2


def test_archimedean_lower_bound_ranges():
    # a < 0: lambda_inf > (1/4)log(x^2 - a) - (1/12)log|disc|
    for a, pt in ((-2, (-1, 1)), (-5, (5, 10)), (-12, (6, 12))):
        curve = Curve(a)
        point = affine(*pt)
        lam = lambda_archimedean(curve, point).value
        floor_ = 0.25 * math.log(float(point.x**2 - a)) - math.log(
            abs(curve.discriminant)
        ) / 12.0
        assert lam > floor_
    # a > 0: lambda_inf > (1/4)log(a) - (1/12)log|disc|
    for a, pt in ((3, (1, 2)), (3, (12, 42)), (56628, (198, 4356))):
        curve = Curve(a)
        point = affine(*pt)
        lam = lambda_archimedean(curve, point).value
        floor_ = 0.25 * math.log(a) - math.log(abs(curve.discriminant)) / 12.0
        assert lam > floor_
