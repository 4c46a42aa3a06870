import math
import time
from fractions import Fraction
from functools import cache

import pytest

from axheights import arithmetic, bounds, curve, heights
from axheights.arithmetic import isqrt_exact, ord_int
from axheights.curve import INFINITY, Curve, _doubling_gcd, affine, x_after_doubling
from axheights.errors import (
    AxHeightsError,
    DepthExceeded,
    InfinityPoint,
    NotOnCurve,
    TorsionPoint,
)
from axheights.families import FAMILIES
from axheights.heights import (
    _ITEMIZE_LIMIT,
    _to_minimal,
    canonical_height,
    denominator_sequence,
    height_primes,
    limit_oracle,
    naive_height,
    nonarch_sum_identity,
)
from axheights.local_heights import _lambda_p, bad_primes, lambda_archimedean, lambda_nonarch


@pytest.mark.parametrize(
    "x,expected",
    [
        (Fraction(1, 4), math.log(4)),
        (Fraction(-7, 8), math.log(8)),
        (Fraction(9265), math.log(9265)),
        (Fraction(0), 0.0),
    ],
)
def test_naive_height(x, expected):
    assert naive_height(affine(x, 0)) == pytest.approx(expected, abs=1e-15)


def test_naive_height_infinity():
    with pytest.raises(InfinityPoint):
        naive_height(INFINITY)


def test_canonical_height_torsion_is_zero():
    bd = canonical_height(Curve(4), affine(2, 4))
    assert bd.canonical == 0.0
    assert bd.is_torsion
    assert bd.nonarch_terms == ()
    assert canonical_height(Curve(4), INFINITY).canonical == 0.0
    assert canonical_height(Curve(-9), affine(3, 0)).canonical == 0.0


@pytest.mark.parametrize("a,pt", [
    (64, (0, 0)), (64, (8, 32)), (64, (8, -32)),
    (324, (18, 108)), (324, (18, -108)),
    (-64, (8, 0)), (-64, (-8, 0)),
])
def test_canonical_height_torsion_on_non_minimal_model(a, pt):
    # torsion is tested on the given model, not on the minimal image
    bd = canonical_height(Curve(a), affine(*pt))
    assert bd.is_torsion
    assert bd.canonical == 0.0
    assert bd.nonarch_terms == ()


def test_canonical_height_not_on_curve():
    with pytest.raises(NotOnCurve):
        canonical_height(Curve(3), affine(1, 5))


# frozen values, cross-checked against a 50-digit independent evaluation of
# the archimedean series plus the exact finite terms
_FROZEN = [
    (3, (1, 2), 0.25059119602358915),
    (-2, (-1, 1), 0.30435451598849067),
]


@pytest.mark.parametrize("a,pt,expected", _FROZEN)
def test_canonical_height_frozen_values(a, pt, expected):
    bd = canonical_height(Curve(a), affine(*pt))
    assert abs(bd.canonical - expected) < 1e-12
    assert bd.canonical > 0
    assert bd.error_bound < 1e-12


def test_breakdown_sums():
    bd = canonical_height(Curve(3), affine(1, 2))
    total = bd.archimedean.value + sum(t.value for t in bd.nonarch_terms)
    assert abs(total - bd.canonical) < 1e-14
    assert bd.difference == pytest.approx(bd.naive / 2 - bd.canonical)


def test_quadraticity():
    for a, pt in ((3, (1, 2)), (-2, (-1, 1)), (-5, (5, 10))):
        curve = Curve(a)
        p = affine(*pt)
        bd = canonical_height(curve, p)
        q = p
        for k in range(1, 7):
            q = curve.double(q)
            bq = canonical_height(curve, q)
            tol = 2 * (bq.error_bound + 4**k * bd.error_bound)
            assert abs(bq.canonical - 4**k * bd.canonical) < max(tol, 1e-10)


def test_minimalization_invariance():
    # a = 3 * 2^4 carries (1, 2) to (4, 16)
    assert Curve(48).contains(affine(4, 16))
    h48 = canonical_height(Curve(48), affine(4, 16)).canonical
    h3 = canonical_height(Curve(3), affine(1, 2)).canonical
    assert abs(h48 - h3) < 1e-12


def test_limit_oracle_self_consistency():
    for a, pt in ((3, (1, 2)), (-2, (-1, 1))):
        curve = Curve(a)
        p = affine(*pt)
        r5 = limit_oracle(curve, p, 5)
        r6 = limit_oracle(curve, p, 6)
        # error is O(4^-n): consecutive depths within the theorem envelope
        envelope = (0.25 * math.log(abs(a)) + 0.6) * (4.0**-5 + 4.0**-6)
        assert abs(r5 - r6) < envelope


def test_limit_oracle_agrees_within_envelope():
    # |hhat - oracle(d)| = |difference at 2^d P| / 4^d, and the difference
    # is bounded by the two-sided height-difference theorem
    for a, pt in ((3, (1, 2)), (-2, (-1, 1)), (56628, (198, 4356)), (-5, (5, 10))):
        curve = Curve(a)
        p = affine(*pt)
        bd = canonical_height(curve, p)
        for depth in (5, 6, 7):
            envelope = (0.25 * math.log(abs(a)) + 0.6) / 4.0**depth
            assert abs(bd.canonical - limit_oracle(curve, p, depth)) < envelope


def test_limit_oracle_hand_picked_depth8():
    # points whose doubled orbit lands far out, making depth-8 truncation
    # error < 1e-8 (picked by scanning; see also the acceptance suite)
    picks = [
        (55, (Fraction(9, 16), Fraction(357, 64))),
        (-22, (-2, 6)),
        (-17, (-4, 2)),
    ]
    for a, pt in picks:
        curve = Curve(a)
        p = affine(*pt)
        bd = canonical_height(curve, p)
        assert abs(bd.canonical - limit_oracle(curve, p, 8)) < 1e-8


def test_limit_oracle_is_the_plain_definition():
    # bit for bit the float of (1/2) h(2^k P) / 4^k with x(2^k P) built by
    # Fraction arithmetic; off and on the identity component for a < 0, a
    # non-integral x, and a model that is not fourth-power-free
    bank = [
        (3, (1, 2), 10),
        (-12, (-2, 4), 10),
        (-12, (6, 12), 10),
        (-32, (-4, 8), 8),
        (-184, (Fraction(-184, 25), Fraction(3864, 125)), 8),
        (-249, (Fraction(-83, 81), Fraction(11620, 729)), 8),
    ]
    for a, pt, depth in bank:
        curve, point = Curve(a), affine(*pt)
        x = point.x
        for k in range(1, depth + 1):
            x = (x * x - a) ** 2 / (4 * (x**3 + a * x))
            plain = math.log(max(abs(x.numerator), x.denominator)) / (2.0 * 4.0**k)
            assert limit_oracle(curve, point, k) == plain, (a, pt, k)


def test_limit_oracle_errors():
    with pytest.raises(TorsionPoint):
        limit_oracle(Curve(4), affine(2, 4), 6)
    with pytest.raises(DepthExceeded):
        limit_oracle(Curve(3), affine(1, 2), 11)
    with pytest.raises(DepthExceeded):
        limit_oracle(Curve(3), affine(1, 2), 0)


def _exact_chain(a: int, m: int, d: int, depth: int) -> list[float]:
    """limit_oracle at depths 1..depth from the built pairs: an
    x_after_doubling loop, then log max(|num|, den)."""
    values = []
    for k in range(1, depth + 1):
        m, d = x_after_doubling(a, m, d)
        values.append(math.log(max(abs(m), d)) / (2.0 * 4.0**k))
    return values


def _hexes(values) -> list[str]:
    return [v.hex() for v in values]


@cache
def _small_points() -> list:
    """The nontorsion points of find_points(Curve(a), 20), 0 < |a| <= 60."""
    return [
        (c, p)
        for a in range(-60, 61)
        if a != 0
        for c in [Curve(a)]
        for p in bounds.find_points(c, 20)
        if not c.is_torsion(p)
    ]


@cache
def _multiple(a: int, pt: tuple[int, int], k: int):
    return Curve(a).multiply(k, affine(*pt))


#: base points whose multiples kP reach 5,700 to 13,400 bits at k = 89
_BASES = ((-17, (-1, 4)), (3, (1, 2)), (-2, (-1, 1)))


def test_limit_oracle_matches_the_exact_chain_on_small_points():
    # the doublings build the pairs below 700 bits and run on brackets and
    # residues past them
    points = _small_points()
    assert len(points) > 250
    for c, p in points:
        expected = _exact_chain(c.a, p.x.numerator, p.x.denominator, 8)
        got = [limit_oracle(c, p, k) for k in range(1, 9)]
        assert _hexes(got) == _hexes(expected), (c.a, p)


@pytest.mark.parametrize("a, pt", _BASES)
@pytest.mark.parametrize("k", [17, 40, 89])
def test_limit_oracle_matches_the_exact_chain_on_multiples(a, pt, k):
    # 17P lies below the bracket crossover, 40P and 89P above it
    point = _multiple(a, pt, k)
    expected = _exact_chain(a, point.x.numerator, point.x.denominator, 4)
    got = [limit_oracle(Curve(a), point, depth) for depth in range(1, 5)]
    assert _hexes(got) == _hexes(expected)


def test_limit_oracle_falls_back_to_the_exact_chain(monkeypatch):
    # with _BRACKET_BITS = 1 the doublings run on brackets from the first
    # step, and with ends of 60 bits a bracket often rounds apart; where
    # the chain does not decide, one pair is built and the chain is tried
    # again from it, and the values stay the exact chain's
    cases = [(c, p, 6) for c, p in _small_points() if abs(c.a) <= 20]
    cases += [(Curve(a), _multiple(a, pt, k), 3) for a, pt in _BASES for k in (17, 40)]
    expected = [_exact_chain(c.a, p.x.numerator, p.x.denominator, n) for c, p, n in cases]
    # per oracle call: "o" where the chain returned None, "b" where it
    # returned brackets, "B" for a pair built
    calls = []
    chain = curve._doubling_chain

    def traced(*args):
        brackets = chain(*args)
        calls[-1] += "o" if brackets is None else "b"
        return brackets

    def built(a, m, d):
        calls[-1] += "B"
        return x_after_doubling(a, m, d)

    monkeypatch.setattr(curve, "_BRACKET_BITS", 1)
    monkeypatch.setattr(curve, "_TOP_BITS", 60)
    monkeypatch.setattr(curve, "_doubling_chain", traced)
    monkeypatch.setattr(curve, "x_after_doubling", built)
    for (c, p, depth), values in zip(cases, expected):
        got = []
        for k in range(1, depth + 1):
            calls.append("")
            got.append(limit_oracle(c, p, k))
        assert _hexes(got) == _hexes(values), (c.a, p)
    assert any(events.endswith("b") for events in calls)  # decided on brackets
    assert any("oB" in events for events in calls)  # a bracket held 0
    assert any("bB" in events for events in calls)  # the last brackets left it open
    assert any("Bo" in events or "Bb" in events for events in calls)  # tried again


@pytest.mark.parametrize("a, pt, k", [(-17, (-1, 4), 89), (-17, (-1, 4), 300), (3, (1, 2), 89)])
def test_limit_oracle_at_depth_10_on_huge_points(a, pt, k, monkeypatch):
    # 89P and 300P of (-1, 4) have 13,394 and 152,199 bits, 89P of (1, 2)
    # 5,728: every doubling runs on brackets and residues, none builds a
    # pair past the crossover, and the value lies in the theorem envelope
    c, point = Curve(a), _multiple(a, pt, k)
    height = canonical_height(c, point).canonical
    sizes = []

    def built(a, m, d):
        sizes.append(max(m.bit_length(), d.bit_length()))
        return x_after_doubling(a, m, d)

    monkeypatch.setattr(curve, "x_after_doubling", built)
    value = limit_oracle(c, point, 10)
    assert all(size < curve._BRACKET_BITS for size in sizes)
    assert abs(value - height) < (0.25 * math.log(abs(a)) + 0.6) / 4.0**10


def test_denominator_sequence_examples():
    records = denominator_sequence(Curve(3), affine(1, 2), 2)
    assert [(r.n, r.A, r.B, r.ord2_B) for r in records] == [(1, 1, 1, 0), (2, 1, 4, 2)]
    records = denominator_sequence(Curve(-2), affine(-1, 1), 2)
    assert records[1].B == 4 and records[1].ord2_B == 2
    assert records[1].A == 9  # x(2P) = 9/4
    with pytest.raises(TorsionPoint):
        denominator_sequence(Curve(4), affine(2, 4), 2)


def test_denominator_sequence_matches_multiples():
    curve = Curve(-5)
    gen = affine(5, 10)
    records = denominator_sequence(curve, gen, 5)
    for r in records:
        q = curve.multiply(r.n, gen)
        assert q.x == Fraction(r.A, r.B)


def test_sum_identity_examples():
    # the residues are keyed by the primes dividing 2a, and only by them
    curve = Curve(3)
    ok, residues = nonarch_sum_identity(curve, affine(1, 2))
    assert ok and all(v == 0 for v in residues.values())
    assert sorted(residues) == bad_primes(curve)
    curve = Curve(-5)
    ok, residues = nonarch_sum_identity(curve, affine(5, 10))
    assert ok
    assert sorted(residues) == bad_primes(curve)
    # a = 4 mod 16 branch with ord_2(x(2P)) > 0
    curve = Curve(56628)
    ok, residues = nonarch_sum_identity(curve, affine(198, 4356))
    assert ok
    assert sorted(residues) == bad_primes(curve)


def test_sum_identity_needs_no_factoring():
    # x(20P) = alpha^2/delta^2 with a 102-digit delta; the identity says
    # nothing at the primes dividing delta, so it must not factor delta
    curve = Curve(-17)
    point = curve.multiply(10, affine(-1, 4))
    assert nonarch_sum_identity(curve, point) == (True, {2: 0, 17: 0})


def _sum_identity_by_roots(curve, point):
    """nonarch_sum_identity as it read before the gcd rule: x(2P) is a
    square when both isqrt_exact(num) and isqrt_exact(den) exist, and delta
    is the root of den."""
    a = curve.a
    num, den = x_after_doubling(a, point.x.numerator, point.x.denominator)
    delta = isqrt_exact(den)
    if delta is None or isqrt_exact(num) is None:
        return False, {}
    indicator = a % 16 == 4 and ord_int(num, 2) > 0
    residues = {}
    for p in bad_primes(curve):
        twelfths = 12 * ord_int(delta, p) + ord_int(curve.discriminant, p)
        if p == 2 and indicator:
            twelfths -= 6
        residues[p] = _lambda_p(a, num, den, p).coefficient - Fraction(twelfths, 12)
    return all(r == 0 for r in residues.values()), residues


def _same_as_the_root_route(curve, point):
    expected = _sum_identity_by_roots(curve, point)
    return nonarch_sum_identity(curve, point) == expected and expected[0]


def test_sum_identity_matches_the_root_route_on_the_acceptance_points(acceptance_sweep):
    points = [(Curve(r.a), affine(Fraction(r.x), Fraction(r.y))) for r in acceptance_sweep.rows]
    assert len(points) > 1000
    assert all(_same_as_the_root_route(curve, point) for curve, point in points)


def test_sum_identity_matches_the_root_route_on_multiples():
    # kP for k = 1..120, up to 7,331 digits of x; the two routes also agree
    # up to k = 300, where the reference's roots take about 17 s in all
    curve, p = Curve(-17), affine(-1, 4)
    point = p
    for _ in range(120):
        assert _same_as_the_root_route(curve, point)
        point = curve.add(point, p)


def test_sum_identity_matches_the_root_route_on_family_points():
    # each family's candidate at parameters 0..3 with |a| < 10^40, on its
    # minimal model
    checked = 0
    for build in FAMILIES.values():
        for param in range(4):
            try:
                cand = build(param)
            except AxHeightsError:  # a failed row, no rational half, param 0
                continue
            if abs(cand.a) < 10**40:
                minimal, point, _ = _to_minimal(Curve(cand.a), cand.point)
                assert _same_as_the_root_route(minimal, point)
                checked += 1
    assert checked > 60


def test_sum_identity_takes_one_small_root(monkeypatch):
    # 300P has 45,817 digits of x; the one root is of the map's gcd, a
    # divisor of 16 a^4, and the verdict and residues are the root route's
    curve = Curve(-17)
    point = curve.multiply(300, affine(-1, 4))
    roots = []
    monkeypatch.setattr(heights, "isqrt_exact", lambda n: roots.append(n) or isqrt_exact(n))
    assert nonarch_sum_identity(curve, point) == (True, {2: 0, 17: 0})
    assert len(roots) == 1 and (16 * curve.a**4) % roots[0] == 0
    monkeypatch.undo()
    assert _sum_identity_by_roots(curve, point) == (True, {2: 0, 17: 0})


def test_sum_identity_off_the_curve_with_a_non_square_gcd():
    # x = -9 is not on a = -11 (x^3 + a x = -630); the map divides out g = 8,
    # so x(2P) = -(92^2/8)/(2520/8) is no square
    assert _doubling_gcd(-11, -9, 1) == 8
    assert heights._sum_identity(Curve(-11), -9, 1) == (False, {})


def test_huge_point_uses_bulk_denominator():
    curve = Curve(3)
    q = affine(1, 2)
    for _ in range(7):
        q = curve.double(q)
    bd = canonical_height(curve, q)
    assert bd.bulk_denominator_log > 0
    assert abs(bd.canonical - 4**7 * 0.25059119602358915) < 1e-9


@pytest.mark.parametrize("k", [13, 23, 29])
def test_height_primes_never_factors_past_the_cap(k):
    # the denominator of kP has 86 to 428 digits; factoring it whole gave up
    # after seconds, but its part prime to 2a never needs factoring
    curve = Curve(-17)
    point = curve.multiply(k, affine(-1, 4))
    started = time.perf_counter()
    primes, rest = height_primes(curve, point)
    assert time.perf_counter() - started < 0.1
    assert primes == [2, 17]
    assert rest > _ITEMIZE_LIMIT


@pytest.mark.parametrize("a,pt", [(a, pt) for a, pt, _ in _FROZEN] + [(48, (4, 16))])
def test_canonical_height_itemises_height_primes(a, pt):
    # small multiples are itemised in full, large ones leave a bulk part
    curve = Curve(a)
    for k in (1, 3, 5, 13, 23, 29):
        point = curve.multiply(k, affine(*pt))
        primes, rest = height_primes(*_to_minimal(curve, point)[:2])
        bd = canonical_height(curve, point)
        assert [t.prime for t in bd.nonarch_terms] == primes
        assert bd.bulk_denominator_log == 0.5 * math.log(rest)


@pytest.fixture
def contains_calls(monkeypatch):
    """A list that counts every Curve.contains call from here on."""
    calls = []
    original = Curve.contains

    def counting(self, point):
        calls.append(point)
        return original(self, point)

    monkeypatch.setattr(Curve, "contains", counting)
    return calls


def test_each_point_is_checked_once(contains_calls):
    # a = 3 itemises 2 and 3 at least; the local heights check nothing
    curve, point = Curve(3), affine(1, 2)
    assert len(height_primes(curve, point)[0]) >= 2
    contains_calls.clear()
    canonical_height(curve, point)
    assert len(contains_calls) == 1
    contains_calls.clear()
    bounds.certify_point(curve, point)
    assert len(contains_calls) == 1  # B2 runs on the point the height checked
    contains_calls.clear()
    nonarch_sum_identity(curve, point)
    assert len(contains_calls) == 1
    contains_calls.clear()
    bounds.check_b2_bounds(curve, point)
    assert len(contains_calls) == 1
    contains_calls.clear()
    denominator_sequence(curve, point, 2)
    assert len(contains_calls) == 1
    # the sweep checks each point find_points returns once, in _certify:
    # a = -25 has 2 torsion and 4 nontorsion points in the box
    contains_calls.clear()
    rows, torsion = bounds.sweep_curve(-25, 30)
    assert (len(rows), torsion) == (4, 2)
    assert len(contains_calls) == 6


@pytest.fixture
def factored(monkeypatch):
    """factored(f) runs f() on cold factoring caches and returns the set of
    numbers it factored and its number of Pollard rho calls."""
    numbers, rho = set(), []
    cached, pollard = arithmetic._factorize_cached, arithmetic._pollard_brent
    monkeypatch.setattr(arithmetic, "_factorize_cached",
                        lambda n, budget: numbers.add(n) or cached(n, budget))
    monkeypatch.setattr(arithmetic, "_pollard_brent",
                        lambda n, budget: rho.append(n) or pollard(n, budget))

    def run(f):
        numbers.clear()
        rho.clear()
        cached.cache_clear()
        arithmetic.fourth_power_free_part.cache_clear()
        f()
        return numbers.copy(), len(rho)

    return run


def test_each_a_is_factored_once(factored):
    # the minimal model and the bad primes read the one factorisation of a;
    # beyond it only the itemised part of den x(P) is factored
    assert factored(lambda: bounds.certify_point(Curve(48), affine(4, 16))) == ({48, 3}, 0)
    curve = Curve(-17)
    point = curve.multiply(5, affine(-1, 4))
    assert point.x.denominator == 1811244930625

    def certify_and_sum():
        bounds.certify_point(curve, point)
        nonarch_sum_identity(curve, point)

    # factorize passes |n| to the memo, so -17 and 17 share one entry
    assert factored(certify_and_sum) == ({17, 1811244930625}, 0)
    cand = FAMILIES["diff-upper"](10**9)
    # a = 4 * (8 a1^2 + 8 a1 + 1), whose odd part needs Pollard rho
    assert factored(lambda: bounds.certify_point(Curve(cand.a), cand.point)) == ({cand.a}, 1)


@pytest.mark.parametrize("a,pt", [(a, pt) for a, pt, _ in _FROZEN])
def test_public_local_heights_match_the_breakdown(a, pt):
    curve = Curve(a)
    for k in range(1, 30):
        point = curve.multiply(k, affine(*pt))
        minimal, q, _ = _to_minimal(curve, point)
        bd = canonical_height(curve, point)
        assert lambda_archimedean(minimal, q) == bd.archimedean
        primes, _ = height_primes(minimal, q)
        assert tuple(lambda_nonarch(minimal, q, p) for p in primes) == bd.nonarch_terms
