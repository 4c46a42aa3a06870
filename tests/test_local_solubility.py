"""The local test find_points runs before it searches a descent quartic.

A rational point on N^2 = b1 M^4 + b2 e^4 is a point over every Q_p, so a
quartic with no Q_p point for some p | 2a has no rational point and may be
skipped.  These tests hold the test to an exact, independent Q_p search and
to curves whose descent is known.
"""

import functools
import hashlib
import math
from fractions import Fraction

import pytest

from axheights import bounds
from axheights.arithmetic import (
    factorize,
    is_fourth_power_free,
    ord_int,
    squarefree_divisors,
)
from axheights.bounds import find_points
from axheights.curve import Curve, Point

from reference_arithmetic import squarefree_decompose
from test_bounds import _find_points_brute_force


@functools.lru_cache(maxsize=None)
def _unit_squares(p):
    # a p-adic unit is a square iff its residue mod q lies in here
    q = 8 if p == 2 else p
    return q, frozenset(i * i % q for i in range(1, q, 2 if p == 2 else 1))


def _is_square(v, p):
    if v == 0:
        return True
    k = ord_int(v, p)
    q, squares = _unit_squares(p)
    return k % 2 == 0 and v // p**k % q in squares


def _takes_square(c4, c0, x0, n, p):
    """Whether g(x) = c4 x^4 + c0 is a square for some x in x0 + p^n Z_p.

    Exact: on the disc g(x0 + p^n t) = sum_k taylor[k] p^(kn) t^k, so every
    value is g(x0) mod p^var.  When that fixes the square class the disc is
    decided; a root of g found by Hensel's lemma gives N = 0; otherwise the
    disc splits into p smaller ones.
    """
    taylor = [c4 * math.comb(4, k) * x0 ** (4 - k) for k in range(5)]
    taylor[0] += c0
    g0 = taylor[0]
    if _is_square(g0, p):
        return True
    lam = ord_int(g0, p)
    var = min(ord_int(t, p) + k * n for k, t in enumerate(taylor) if k and t)
    if lam + (3 if p == 2 else 1) <= var:
        return False
    mu = ord_int(taylor[1], p) if taylor[1] else None
    if mu is not None and lam > 2 * mu and lam - mu >= n:
        return True
    q, squares = _unit_squares(p)
    for t in range(p):
        x = x0 + t * p**n
        r = (c4 * pow(x, 4, p) + c0) % p
        if p > 2 and r:
            # a unit value on a disc of level >= 1 fixes the square class
            if r in squares:
                return True
        elif _takes_square(c4, c0, x, n + 1, p):
            return True
    return False


def _qp_soluble(b1, b2, p):
    """N^2 = b1 M^4 + b2 e^4 over Q_p with M, e coprime p-adic integers:
    either e is a unit (scale it to 1) or p | e and M is a unit."""
    return _takes_square(b1, b2, 0, 0, p) or _takes_square(b2, b1, 0, 1, p)


def _classes(a):
    """Every signed squarefree b1 | a, as (b1, b2) with a = b1 b2."""
    return [(b1, a // b1) for d in squarefree_divisors(a) for b1 in (d, -d)]


def test_odd_closed_forms_match_exact_qp_search():
    compared = 0
    for a in range(-2000, 2001):
        if a == 0:
            continue
        for p, k in factorize(a).items():
            if p == 2 or k > 3:
                continue
            for b1, b2 in _classes(a):
                assert bounds._soluble_at_odd(b1, b2, p, k) == _qp_soluble(b1, b2, p), (a, b1, p)
                compared += 1
    assert compared > 80_000


def _unit_class(b):
    k = ord_int(b, 2)
    return k, b // 2**k % 16


def test_mod_256_test_is_sound_and_exact_at_2():
    # sound for every a; exact (the Q_2 answer) when ord_2 a <= 3.  Both
    # answers depend only on ord_2 and the odd part mod 16 of b1 and b2, as
    # odd fourth powers are the units 1 mod 16; with ord_2 a <= 3 there are
    # 7 valuation pairs times 8 * 8 odd parts, and all 448 occur here
    insoluble = 0
    classes = set()
    for a in range(-2000, 2001):
        if a == 0:
            continue
        for b1, b2 in _classes(a):
            exact = _qp_soluble(b1, b2, 2)
            if ord_int(a, 2) <= 3:
                assert bounds._soluble_at_2(b1, b2) == exact, (a, b1)
                classes.add((_unit_class(b1), _unit_class(b2)))
            else:
                assert bounds._soluble_at_2(b1, b2) or not exact, (a, b1)
            insoluble += not exact
    assert len(classes) == 448
    assert insoluble > 1000


def test_mod_256_test_matches_its_definition_on_every_key():
    # the keys _soluble_at_2 forms: b mod 2^(ord_2 b + 4), capped at 256,
    # for every nonzero b; each pair against N^2 = r1 M^4 + r2 e^4 mod 256
    # searched over every M, e mod 256 with one of them odd and every N
    keys = {b % min(16 * (b & -b), 256) for b in range(-1024, 1025) if b}
    assert len(keys) == 48
    fourths = {(pow(m, 4, 256), pow(e, 4, 256)) for m in range(256) for e in range(256)
               if (m | e) & 1}
    squares = {n * n % 256 for n in range(256)}
    for r1 in keys:
        for r2 in keys:
            exact = any((r1 * f + r2 * g) % 256 in squares for f, g in fourths)
            assert bounds._soluble_mod_256(r1, r2) == exact, (r1, r2)


@pytest.mark.parametrize("a", [48, -48, 162, -162, 1250, -1250, 2 * 3**4 * 5**4])
def test_find_points_on_non_minimal_a_matches_brute_force(a):
    # ord_p a >= 4 at some prime: that odd prime is not tested, 2 still is
    assert not is_fourth_power_free(a)
    assert find_points(Curve(a), 30) == _find_points_brute_force(Curve(a), 30)


def test_find_points_digest_unchanged():
    # the point lists of the unpruned search, for every a in [-3000, 3000]
    # at bound 30: the fourth-power-free a, and all nonzero a
    minimal, every = hashlib.sha256(), hashlib.sha256()
    counts = [0, 0]
    for a in range(-3000, 3001):
        if a == 0:
            continue
        keep = is_fourth_power_free(a)
        for p in find_points(Curve(a), 30):
            line = f"{a} {p.x} {p.y}\n".encode()
            every.update(line)
            counts[1] += 1
            if keep:
                minimal.update(line)
                counts[0] += 1
    assert counts == [9703, 10777]
    assert minimal.hexdigest() == (
        "88ca94ec7d7a77f7e14021642667d1ccb9178a76addbee0829d12f665b203e62")
    assert every.hexdigest() == (
        "1ee52b7efb55e6f5fc789113d61c67ab3063c002ed0f88cf66d3be135d1489ca")


def test_local_test_agrees_on_both_classes_of_a_pair():
    # find_points tests a pair {b1, a/b1} of squarefree classes once: the
    # two quartics are one equation with M and e swapped
    pairs = 0
    for a in range(-1000, 1001):
        if a == 0 or not is_fourth_power_free(a):
            continue
        classes = {b1 for b1, _ in _classes(a)}
        for b1 in classes:
            b2 = a // b1
            if b2 != b1 and b2 in classes:
                assert bounds._locally_soluble(a, b1) == bounds._locally_soluble(a, b2), (a, b1)
                pairs += 1
    assert pairs > 10_000


def test_local_test_runs_once_per_pair(monkeypatch):
    # over the acceptance window, 1,694 of the 2,265 classes find_points
    # searches have a squarefree partner: 847 pairs and 571 single classes.
    # The count does not depend on the search bound
    calls = 0
    original = bounds._locally_soluble

    def counted(a, b1):
        nonlocal calls
        calls += 1
        return original(a, b1)

    monkeypatch.setattr(bounds, "_locally_soluble", counted)
    for a in range(-200, 201):
        if a != 0 and is_fourth_power_free(a):
            find_points(Curve(a), 1)
    assert calls == 1418


def test_sieve_leaves_few_square_roots(monkeypatch):
    # at bound 100 over the acceptance window the residue sieve lets 2,989
    # values of the quartic through to isqrt_exact (33,591 with the moduli
    # up to 19 alone); the local test still runs once per pair
    calls = {"isqrt_exact": 0, "_locally_soluble": 0}

    def counted(name):
        original = getattr(bounds, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(bounds, name, wrapper)

    counted("isqrt_exact")
    counted("_locally_soluble")
    for a in range(-200, 201):
        if a != 0 and is_fourth_power_free(a):
            find_points(Curve(a), 100)
    assert calls == {"isqrt_exact": 2989, "_locally_soluble": 1418}


def _class_of(a, point):
    """b1 of the quartic a point lies on: the squarefree part of the
    numerator of x, and of a for (0, 0)."""
    return squarefree_decompose(point.x.numerator if point.x else a)[0]


def test_classes_of_sweep_points_pass_the_local_test(acceptance_sweep):
    # P and its translates by torsion lie on other quartics (x(P + (0, 0))
    # is a/x(P)), often outside the box: each one's class must survive too
    checked = set()
    for row in acceptance_sweep.rows:
        curve = Curve(row.a)
        point = Point(Fraction(row.x), Fraction(row.y))
        for t in curve.torsion_subgroup().points:
            b1 = _class_of(row.a, curve.add(point, t))
            assert bounds._locally_soluble(row.a, b1), (row.a, row.x, t)
            checked.add((row.a, b1))
    assert len(checked) > 600


def _surviving(a):
    return {b1 for b1, _ in _classes(a) if bounds._locally_soluble(a, b1)}


@pytest.mark.parametrize("n, classes", [(1, {1, -1}), (2, {1, -1, 2, -2}), (3, {1, -1, 3, -3})])
def test_rank_zero_congruent_curves_keep_only_torsion_classes(n, classes):
    # y^2 = x^3 - n^2 x has rank 0 for n = 1, 2, 3 (Tunnell 1983): the
    # descent is sharp there, and only the classes of 1, (0, 0), (+-n, 0)
    # survive
    a = -n * n
    curve = Curve(a)
    torsion = {_class_of(a, t) for t in curve.torsion_subgroup().points if not t.is_infinity}
    assert torsion | {1} == classes
    assert _surviving(a) == classes


@pytest.mark.parametrize("n", [5, 6, 7])
def test_rank_one_congruent_curves_keep_their_point_classes(n):
    a = -n * n
    curve = Curve(a)
    nontorsion = [p for p in find_points(curve, 30) if not curve.is_torsion(p)]
    assert nontorsion
    assert {_class_of(a, p) for p in nontorsion} <= _surviving(a)
