import pickle
import random
from fractions import Fraction

import pytest

from axheights.arithmetic import is_fourth_power_free
from axheights.bounds import find_points
from axheights.curve import INFINITY, Curve, Point, affine, x_after_doubling
from axheights.errors import NotOnCurve, ZeroInput

from reference_arithmetic import is_rational_square, squarefree_decompose


def test_on_curve_examples():
    assert Curve(3).contains(affine(1, 2))
    assert Curve(-2).contains(affine(-1, 1))
    assert not Curve(3).contains(affine(1, 3))
    assert Curve(3).contains(INFINITY)


def test_contains_checks_the_denominators():
    # n^2 = m(m^2 + a d^2) holds for (1, 2/3) and (1/4, 7/4) on a = 3; only
    # f^2 != d^3 rejects them (9 != 1 and 16 != 64)
    for x, y in ((1, Fraction(2, 3)), (Fraction(1, 4), Fraction(7, 4))):
        point = affine(x, y)
        m, d = point.x.numerator, point.x.denominator
        assert point.y.numerator ** 2 == m * (m * m + 3 * d * d)
        assert not Curve(3).contains(point)


def test_point_is_slotted_and_pickles():
    point = affine(Fraction(-272, 81), Fraction(3196, 729))
    assert not hasattr(point, "__dict__")
    for p in (point, -point, INFINITY):
        copy = pickle.loads(pickle.dumps(p))
        assert copy == p and copy.is_infinity == p.is_infinity


def test_curve_invariants():
    c = Curve(3)
    assert c.discriminant == -64 * 27
    assert c.is_minimal
    assert not Curve(48).is_minimal
    with pytest.raises(ZeroInput):
        Curve(0)


def test_double_examples():
    c = Curve(3)
    two_p = c.double(affine(1, 2))
    # x(2P) = (x^2 - a)^2 / (4 y^2) = (1 - 3)^2 / 16 = 1/4
    assert two_p.x == Fraction(1, 4)
    assert c.contains(two_p)
    assert two_p == affine(Fraction(1, 4), Fraction(-7, 8))
    assert Curve(4).double(affine(2, 4)) == affine(0, 0)
    assert Curve(5).double(affine(0, 0)) == INFINITY
    with pytest.raises(NotOnCurve):
        c.double(affine(1, 3))


def test_add_examples():
    c = Curve(3)
    p = affine(1, 2)
    assert c.add(p, INFINITY) == p
    assert c.add(INFINITY, p) == p
    assert c.add(p, -p) == INFINITY
    assert c.add(p, p) == c.double(p)


def test_multiply_examples():
    c3 = Curve(3)
    p = affine(1, 2)
    assert c3.multiply(0, p) == INFINITY
    assert c3.multiply(1, p) == p
    assert c3.multiply(2, p) == c3.double(p)
    assert c3.multiply(-1, p) == -p
    assert Curve(4).multiply(4, affine(2, 4)) == INFINITY


def test_group_law_fuzz():
    # associativity and inverse on small multiples of a generator
    for a, gen in ((3, affine(1, 2)), (-2, affine(-1, 1)), (-5, affine(5, 10))):
        c = Curve(a)
        pts = [c.multiply(n, gen) for n in range(-3, 4)]
        rng = random.Random(42)
        for _ in range(25):
            p, q, r = rng.choice(pts), rng.choice(pts), rng.choice(pts)
            assert c.add(c.add(p, q), r) == c.add(p, c.add(q, r))
        for p in pts:
            assert c.add(p, -p) == INFINITY


@pytest.mark.parametrize(
    "a,kind,xs",
    [
        (4, "Z4", {Fraction(0), Fraction(2)}),
        (-1, "Z2xZ2", {Fraction(0), Fraction(1), Fraction(-1)}),
        (3, "Z2", {Fraction(0)}),
    ],
)
def test_torsion_examples(a, kind, xs):
    t = Curve(a).torsion_subgroup()
    assert t.kind == kind
    assert {p.x for p in t.points} == xs


def test_torsion_orders():
    for a in (4, -1, 3, -9, 7, -36):
        c = Curve(a)
        t = c.torsion_subgroup()
        order = 4 if t.kind == "Z4" else 2
        for p in t.points:
            assert c.contains(p)
            assert c.multiply(order, p) == INFINITY


def test_torsion_on_non_minimal_model():
    # a = 64 = 4 * 2^4 is isomorphic to a = 4, so its torsion is Z4 with the
    # points carried through (x, y) -> (4x, 8y)
    t = Curve(64).torsion_subgroup()
    assert t.kind == "Z4"
    assert affine(8, 32) in t.points
    for p in t.points:
        assert Curve(64).contains(p)


def test_is_torsion():
    assert Curve(4).is_torsion(affine(2, -4))
    assert not Curve(3).is_torsion(affine(1, 2))
    assert Curve(-2).is_torsion(INFINITY)


def test_square_class_parity():
    # x(nP) is a square for n even and u * (square) for n odd, u the
    # squarefree part of x(P)
    for a, gen in ((3, affine(1, 2)), (-2, affine(-1, 1)), (-5, affine(5, 10))):
        c = Curve(a)
        u = squarefree_decompose(gen.x.numerator * gen.x.denominator)[0]
        for n in range(1, 7):
            q = c.multiply(n, gen)
            if q.is_infinity or q.x == 0:
                continue
            if n % 2 == 0:
                assert is_rational_square(q.x) is not None
            else:
                assert is_rational_square(q.x / u) is not None


def test_minimalize():
    minimal, s = Curve(48).minimalize()
    assert minimal.a == 3 and s == 2
    minimal, s = Curve(3).minimalize()
    assert minimal.a == 3 and s == 1


def test_public_api_names_resolve():
    import axheights

    assert len(set(axheights.__all__)) == len(axheights.__all__)
    for name in axheights.__all__:
        assert hasattr(axheights, name), name


@pytest.mark.parametrize("a,x", [(3, 0), (-4, 0), (-4, 2), (-4, -2), (-9, 3), (-1, 1), (-64, 8)])
def test_x_after_doubling_infinite_at_two_torsion(a, x):
    # x = 0 and x^2 = -a are the x-coordinates of the 2-torsion points
    with pytest.raises(ZeroDivisionError):
        x_after_doubling(a, x, 1)


@pytest.mark.parametrize("a", [3.0, -2.0, Fraction(3)], ids=["3.0", "-2.0", "Fraction(3)"])
def test_curve_rejects_non_integer_a(a):
    with pytest.raises(TypeError, match="a must be an integer"):
        Curve(a)


def _textbook_add(a, p, q):
    """P + Q on y^2 = x^3 + a x: the line through P and Q (the tangent when
    P = Q) meets the curve a third time at -(P + Q)."""
    if p.is_infinity:
        return q
    if q.is_infinity:
        return p
    (x1, y1), (x2, y2) = (p.x, p.y), (q.x, q.y)
    if x1 != x2:
        slope = (y2 - y1) / (x2 - x1)
    elif y1 == y2 and y1 != 0:
        slope = (3 * x1 * x1 + a) / (y1 + y1)
    else:
        return INFINITY
    x3 = slope**2 - x1 - x2
    return Point(x3, -(y1 + slope * (x3 - x1)))


#: every point find_points(., 10) finds, their negatives, the torsion and O,
#: for each fourth-power-free |a| <= 30
GROUP = {
    a: sorted(
        {INFINITY, *Curve(a).torsion_subgroup().points}
        | {r for p in find_points(Curve(a), 10) for r in (p, -p)},
        key=str,
    )
    for a in range(-30, 31)
    if a != 0 and is_fourth_power_free(a)
}


@pytest.mark.parametrize("a", sorted(GROUP))
def test_group_law_matches_textbook(a):
    c, points = Curve(a), GROUP[a]
    for p in points:
        assert c.double(p) == _textbook_add(a, p, p), p
        for q in points:
            assert c.add(p, q) == _textbook_add(a, p, q), (p, q)
        total = INFINITY
        for k in range(13):
            assert c.multiply(k, p) == total, (p, k)
            total = c.add(total, p)
