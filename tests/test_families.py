import math
from fractions import Fraction

import pytest

from axheights.curve import Curve, affine
from axheights.errors import NoRationalHalf, RowValidationFailed
from axheights.families import (
    FAMILIES,
    family_diff,
    family_lang_neg,
    family_lang_pos,
    halve_point,
    pell_c,
    pell_d,
)
from axheights.heights import canonical_height


def test_pell_sequences():
    assert [pell_c(n) for n in range(7)] == [1, 1, 3, 7, 17, 41, 99]
    assert [pell_d(n) for n in range(6)] == [0, 1, 2, 5, 12, 29]
    assert pell_c(4) ** 2 - 2 * 12**2 == 1


def test_lang_neg_4_halves_exactly_on_pell_solutions():
    # lang-neg-4 halves d^2 on a = -(d^4 - 4) with no certificate of its own:
    # a half exists exactly when 2 d^2 - z^2 = +-4 has an integer solution
    def is_square(n):
        return n >= 0 and math.isqrt(n) ** 2 == n

    for d in range(3001):
        pell = is_square(2 * d * d - 4) or is_square(2 * d * d + 4)
        assert bool(halve_point(Curve(-(d**4 - 4)), d * d)) == pell, d


def test_halve_point_examples():
    halves = halve_point(Curve(-6003725), Fraction(9801, 4))
    assert [p.x for p in halves] == [-1015, 5915]
    for p in halves:
        assert Curve(-6003725).contains(p)
        assert Curve(-6003725).double(p).x == Fraction(9801, 4)

    halves = halve_point(Curve(3), Fraction(1, 4))
    assert Fraction(1) in {p.x for p in halves}

    assert halve_point(Curve(5), 7) == []
    assert halve_point(Curve(5), -4) == []
    # 4 is a square, but 4^3 + 3*4 = 76 is not: 4 is no x-coordinate on a = 3
    assert halve_point(Curve(3), 4) == []


def test_halve_point_two_torsion_target():
    # halves of (0, 0) on a = 4 are the order-4 points (2, +-4)
    halves = halve_point(Curve(4), 0)
    assert [p.x for p in halves] == [2]


def test_halve_point_inverts_doubling_fuzz():
    from axheights.bounds import find_points

    checked = 0
    for a in (-17, -12, -5, -2, 3, 5, 17, 20, 33, -33, 63, -63):
        curve = Curve(a)
        torsion = curve.torsion_subgroup().points
        for p in find_points(curve, 20):
            if p in torsion or -p in torsion:
                continue
            q = curve.double(p)
            halves = halve_point(curve, q.x)
            assert p.x in {h.x for h in halves}, (a, p)
            for h in halves:
                assert curve.double(h).x == q.x
            checked += 1
    assert checked > 40


def test_every_registered_family_builds_under_its_name():
    # the registry holds each --family name once; each builder names its
    # candidate by its key, or raises the error documented for its row
    assert set(FAMILIES) == (
        {f"lang-pos-{r}" for r in range(1, 16)}
        | {f"lang-neg-{r}" for r in range(1, 16)}
        | {"diff-lower-pos", "diff-lower-neg", "diff-upper"}
    )
    for name, build in FAMILIES.items():
        if name.startswith("lang-pos-"):
            param = 1
        elif name.startswith("lang-neg-"):
            param = 2 if name == "lang-neg-4" else 0
        else:
            param = 5
        if name in ("lang-pos-1", "lang-pos-11"):
            with pytest.raises(RowValidationFailed):
                build(param)
            continue
        cand = build(param)
        assert (cand.family, cand.parameter) == (name, param)


def test_family_lang_pos_residue4():
    cand = family_lang_pos(4, 1)
    assert cand.a == 56628
    assert cand.point == affine(198, 4356)
    assert cand.validated


def test_family_lang_pos_all_rows():
    # rows 1 and 11 fail on-curve validation as written; the generator must
    # surface that instead of returning a bogus point
    for residue in range(1, 16):
        if residue in (1, 11):
            with pytest.raises(RowValidationFailed):
                family_lang_pos(residue, 1)
            continue
        cand = family_lang_pos(residue, 1)
        assert cand.validated
        assert cand.a % 16 == residue
        assert Curve(cand.a).contains(cand.point)


def test_family_lang_pos_row12():
    cand = family_lang_pos(12, 1)
    assert cand.a == 4 * 5 * 19 * 39**2
    assert Curve(cand.a).contains(cand.point)


def test_family_lang_neg_residue3():
    cand = family_lang_neg(3, 0)
    assert cand.a == -6003725
    assert cand.a % 16 == 3
    assert cand.point.x == 5915
    assert cand.point.y == 414050
    assert cand.target_x2p == Fraction(9801, 4)
    curve = Curve(cand.a)
    assert curve.contains(cand.point)
    assert curve.double(cand.point).x == cand.target_x2p


def test_family_lang_neg_residue4():
    cand = family_lang_neg(4, 2)
    assert cand.a == -12
    assert cand.target_x2p == 4
    assert Curve(-12).double(cand.point).x == 4
    with pytest.raises(NoRationalHalf):
        family_lang_neg(4, 3)


def test_family_lang_neg_small_rows():
    for residue, n in ((11, 0), (12, 0), (3, 0), (10, 0)):
        cand = family_lang_neg(residue, n)
        assert cand.a % 16 == residue
        assert cand.validated
        assert Curve(cand.a).double(cand.point).x == cand.target_x2p


def test_family_lang_neg_large_index_rows():
    # the odd-residue rows need recurrence terms = 1 mod 64 for a to be an
    # integer; generation and exact halving stay feasible at 240+ digit a
    assert pell_c(161) % 64 == 1
    for residue in (1, 5):
        cand = family_lang_neg(residue, 0)
        assert cand.validated
        assert cand.a % 16 == residue
        curve = Curve(cand.a)
        assert curve.contains(cand.point)
        assert curve.double(cand.point).x == cand.target_x2p
    # the archimedean height is computable on such a curve without factoring
    from axheights.local_heights import lambda_archimedean

    cand = family_lang_neg(1, 0)
    lam = lambda_archimedean(Curve(cand.a), cand.point)
    assert math.isfinite(lam.value)


@pytest.mark.parametrize(
    "kind,a1,a,x,y",
    [
        ("lower_pos", 2, 24, 1, 5),
        ("lower_neg", 1, -10, -1, 3),
        ("upper", 1, 68, 34, 204),
    ],
)
def test_family_diff_examples(kind, a1, a, x, y):
    cand = family_diff(kind, a1)
    assert cand.a == a
    assert cand.point == affine(x, y)
    assert cand.validated


def test_family_diff_on_curve_sampled():
    for a1 in (1, 7, 123, 4096, 9999):
        for kind in ("lower_pos", "lower_neg", "upper"):
            cand = family_diff(kind, a1)
            assert Curve(cand.a).contains(cand.point)


def test_lang_pos_margin_decreases():
    # margin against the residue-4 class formula (1/16)log a - (1/8)log 2;
    # a1 = 10 gives a = 4*81*85*83^2 which is not fourth-power-free, so the
    # class formula is evaluated directly rather than via lang_lower_bound
    margins = []
    for a1 in (1, 10, 100):
        cand = family_lang_pos(4, a1)
        hhat = canonical_height(Curve(cand.a), cand.point).canonical
        bound = math.log(cand.a) / 16 - math.log(2) / 8
        margins.append(hhat - bound)
    assert all(m > 0 for m in margins)
    assert margins[0] > margins[1] > margins[2]


def test_diff_upper_constant_monotone():
    consts = []
    for a1 in (1, 10, 100, 1000):
        cand = family_diff("upper", a1)
        bd = canonical_height(Curve(cand.a), cand.point)
        consts.append(bd.difference - 0.25 * math.log(cand.a))
    limit = 0.375 * math.log(2)
    assert consts == sorted(consts)
    assert all(c < limit for c in consts)
    assert limit - consts[-1] < 1e-4
