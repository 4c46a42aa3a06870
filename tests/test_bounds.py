import concurrent.futures
import copy
import logging
import math
import pickle
from fractions import Fraction

import pytest

from axheights import bounds
from axheights.arithmetic import (
    is_fourth_power_free,
    isqrt_exact,
    ord_int,
    squarefree_divisors,
)
from axheights.bounds import (
    BoundCheck,
    certify_point,
    check_b2_bounds,
    corollary_bound,
    diff_bounds,
    find_points,
    lang_lower_bound,
    residue_group,
    sweep,
)
from axheights.curve import Curve, Point, affine, x_after_doubling
from axheights.errors import AxHeightsError, NotMinimal, ZeroInput
from axheights.heights import denominator_sequence, limit_oracle

from reference_arithmetic import ord_p

LOG2 = math.log(2.0)


def test_lang_bound_examples():
    b = lang_lower_bound(3)
    assert b.bound == pytest.approx(math.log(3) / 16 + LOG2 / 4)
    assert b.class_tag == "pos-g2"

    b = lang_lower_bound(-7)  # -7 = 9 mod 16
    assert b.bound == pytest.approx(math.log(7) / 16 + 9 * LOG2 / 16)
    assert b.class_tag == "neg-g1"

    b = lang_lower_bound(4)
    assert b.bound == pytest.approx(0.0, abs=1e-15)
    assert b.constant == Fraction(-1, 8)


@pytest.mark.parametrize("a, tag, constant", [
    (1, "pos-g1", Fraction(1, 2)),
    (3, "pos-g2", Fraction(1, 4)),
    (4, "pos-g4", Fraction(-1, 8)),
    (-7, "neg-g1", Fraction(9, 16)),
    (-2, "neg-g2", Fraction(5, 16)),
    (-12, "neg-g4", Fraction(-1, 16)),
])
def test_lang_bound_constant_of_each_class(a, tag, constant):
    b = lang_lower_bound(a)
    assert (b.class_tag, b.constant) == (tag, constant)
    assert b.bound == pytest.approx(math.log(abs(a)) / 16 + float(constant) * LOG2, abs=1e-15)


def test_residue_groups_partition_the_nonzero_residues():
    groups = [set(residues) for residues, *_ in bounds._CLASSES.values()]
    assert sorted(r for g in groups for r in g) == list(range(1, 16))
    with pytest.raises(NotMinimal):
        residue_group(-32)


def test_lang_bound_requires_minimal():
    with pytest.raises(NotMinimal):
        lang_lower_bound(48)
    with pytest.raises(NotMinimal):
        lang_lower_bound(0)


def test_lang_class_totality():
    for a in range(-10**4, 10**4 + 1):
        if a == 0 or not is_fourth_power_free(a):
            continue
        group = residue_group(a)
        assert group in ("g1", "g2", "g4")
        lang_lower_bound(a)  # must not raise


def test_corollary_examples():
    assert corollary_bound(1) == pytest.approx(-LOG2 / 8)
    assert corollary_bound(-2) == pytest.approx(math.log(512) / 48 - LOG2 / 4)
    assert corollary_bound(16) == pytest.approx(corollary_bound(1))


def test_corollary_never_stronger_than_class_bound():
    for a in range(-300, 301):
        if a == 0 or not is_fourth_power_free(a):
            continue
        assert corollary_bound(a) <= lang_lower_bound(a).bound + 1e-12


def test_diff_bounds_examples():
    db = diff_bounds(2)
    assert db.upper == pytest.approx(5 * LOG2 / 8)
    db = diff_bounds(-2)
    assert db.lower_sqrt == pytest.approx(-LOG2 / 4 - 0.5 / math.sqrt(2))
    db = diff_bounds(3)
    assert db.lower_const == pytest.approx(-math.log(3) / 4 - 0.16)
    assert db.lower_sqrt < 0 < db.upper


def test_bounds_of_a_zero():
    with pytest.raises(ZeroInput):
        diff_bounds(0)
    with pytest.raises(ZeroInput):
        corollary_bound(0)


def test_certify_point_passes():
    for a, pt in ((3, (1, 2)), (-2, (-1, 1))):
        checks = certify_point(Curve(a), affine(*pt))
        assert {c.theorem for c in checks} == {
            "Lang", "Corollary", "DiffUpper", "DiffLowerSqrt", "DiffLowerConst", "B2",
        }
        assert all(c.passed for c in checks)
        for c in checks:
            if c.theorem != "B2":
                assert c.margin > c.error_bound


def test_certify_non_minimal_model_matches_minimal():
    # 48 = 3 * 2^4 maps (4, 16) to (1, 2); Lang, Corollary and B2 are read on
    # the minimal model, the difference checks on the model given
    def keyed(checks):
        return {
            c.theorem: (c.bound, c.margin, c.status, c.note)
            for c in checks
            if c.theorem in ("Lang", "Corollary", "B2")
        }

    scaled = keyed(certify_point(Curve(48), affine(4, 16)))
    assert scaled.keys() == {"Lang", "Corollary", "B2"}
    assert scaled == keyed(certify_point(Curve(3), affine(1, 2)))


@pytest.mark.parametrize("a, pt", [(48, (4, 16)), (3, (1, 2)), (4, (2, 4))])
def test_certify_maps_to_the_minimal_model_once(monkeypatch, a, pt):
    # the height and the Lang and B2 checks share one image on the minimal
    # model; a torsion point (2, 4) on a = 4 needs none
    calls = []
    minimalize = Curve.minimalize

    def counted(curve):
        calls.append(curve.a)
        return minimalize(curve)

    monkeypatch.setattr(Curve, "minimalize", counted)
    expected = [] if Curve(a).is_torsion(affine(*pt)) else [a]
    certify_point(Curve(a), affine(*pt))
    assert calls == expected


def test_certify_torsion_point():
    checks = certify_point(Curve(4), affine(2, 4))
    assert {c.theorem for c in checks} == {"DiffUpper", "DiffLowerSqrt", "DiffLowerConst"}
    assert all(c.passed for c in checks)
    upper = next(c for c in checks if c.theorem == "DiffUpper")
    # torsion difference is exactly (1/4) log|a| here
    assert upper.actual == pytest.approx(math.log(4) / 4)


def test_check_b2_examples():
    c = check_b2_bounds(Curve(3), affine(1, 2))
    assert c.passed and c.actual == 2 and c.bound == 2
    c = check_b2_bounds(Curve(-2), affine(-1, 1))
    assert c.passed and c.actual == 2


@pytest.mark.parametrize("a, xy, group_bound", [
    (-7, (4, 6), 4),  # g1
    (3, (1, 2), 2),  # g2
    (-12, (-2, 4), 0),  # g4
])
def test_check_b2_class_bound_of_each_group(a, xy, group_bound):
    # each point meets its group's bound with equality
    c = check_b2_bounds(Curve(a), affine(*xy))
    assert c.passed and c.bound == group_bound and c.actual == group_bound


def test_ord2_x_is_one_or_even_when_a_is_4_mod_16():
    # check_b2_bounds takes "ord_2(x) != 1" for the even valuation its step
    # rests on when a = 4 mod 16; the two agree only because ord_2(x) is
    # never odd and above 1 there
    valuations = set()
    for a in range(-500, 501):
        if a % 16 != 4 or not is_fourth_power_free(a):
            continue
        curve = Curve(a)
        for point in find_points(curve, 30):
            if curve.is_torsion(point):
                continue
            for n in range(1, 6):
                v = ord_p(curve.multiply(n, point).x, 2)
                assert v == 1 or v % 2 == 0, (a, point, n)
                valuations.add(v)
    assert 1 in valuations and 0 in valuations


def test_b2_valuations_match_the_x_only_map(acceptance_sweep):
    # B2 reads ord_2 of the denominators of x(P) and x(2P) from
    # denominator_sequence, which walks 2P by the group law; the reduced pair
    # (m, d) and the x-only map give the same two valuations, on every
    # acceptance-sweep point and on kP (k <= 40) for P = (-1, 4) on a = -17
    cases = [(Curve(r.a), Point(Fraction(r.x), Fraction(r.y))) for r in acceptance_sweep.rows]
    curve = Curve(-17)
    cases += [(curve, curve.multiply(k, affine(-1, 4))) for k in range(1, 41)]
    assert len(cases) == 1204
    for curve, point in cases:
        b1, b2 = denominator_sequence(curve, point, 2)
        m, d = point.x.numerator, point.x.denominator
        _, den = x_after_doubling(curve.a, m, d)
        assert (ord_int(d, 2), ord_int(den, 2)) == (b1.ord2_B, b2.ord2_B), (curve.a, point)


def test_find_points_membership():
    pts = find_points(Curve(3), 60)
    assert any(p.x == 1 and p.y == 2 for p in pts)
    # all returned points are on the curve, one per x, sorted
    xs = [p.x for p in pts]
    assert xs == sorted(xs) and len(set(xs)) == len(xs)
    for p in pts:
        assert Curve(3).contains(p)


def test_find_points_recovers_small_multiples():
    # x(nP) for n = 1..4 on a = 3 all fit inside the (u, M, e) box: the
    # search must recover them, including the composite denominator of 4P
    curve = Curve(3)
    gen = affine(1, 2)
    xs = {p.x for p in find_points(curve, 100)}
    for n in range(1, 5):
        assert curve.multiply(n, gen).x in xs


def _find_points_reference(curve, search_bound):
    # an earlier search, kept as a reference: it tests the cubic form
    # u^2 M^2 (u^2 M^4 + a e^4) = (u M N)^2 of the descent identity and
    # deduplicates by x
    sq_mod = frozenset((i * i) % 256 for i in range(256))
    a = curve.a
    found = {}
    m2 = [m * m for m in range(search_bound + 1)]
    m4 = [v * v for v in m2]
    e4 = m4
    units = [1, -1] if a < 0 else [1]
    for u0 in squarefree_divisors(a):
        for sign in units:
            u = sign * u0
            u2 = u * u
            for e in range(1, search_bound + 1):
                if math.gcd(u0, e) != 1:
                    continue
                ae4 = a * e4[e]
                ee = e * e
                e3 = e * ee
                for m in range(1, search_bound + 1):
                    if math.gcd(m, e) != 1:
                        continue
                    um2 = u * m2[m]
                    target = um2 * (u2 * m4[m] + ae4)
                    if target < 0 or (target & 255) not in sq_mod:
                        continue
                    root = isqrt_exact(target)
                    if root is None:
                        continue
                    x = Fraction(um2, ee)
                    if x not in found:
                        found[x] = Point(x, Fraction(root, e3))
    return [found[x] for x in sorted(found)]


def test_find_points_matches_reference():
    for a in range(-60, 61):
        if a == 0 or not is_fourth_power_free(a):
            continue
        curve = Curve(a)
        assert find_points(curve, 40) == _find_points_reference(curve, 40), a


def _find_points_brute_force(curve, search_bound):
    # the descent quartic with no residue sieve and no range cut: isqrt on
    # every coprime (M, e) for every signed squarefree b1
    a = curve.a
    found = []
    for d in squarefree_divisors(a):
        for b1 in (d, -d):
            b2 = a // b1
            for e in range(1, search_bound + 1):
                if math.gcd(d, e) != 1:
                    continue
                for m in range(1, search_bound + 1):
                    if math.gcd(m, e) != 1:
                        continue
                    n = isqrt_exact(b1 * m**4 + b2 * e**4)
                    if n is not None:
                        found.append(Point(Fraction(b1 * m * m, e * e),
                                           Fraction(d * m * n, e**3)))
    return sorted(found, key=lambda p: p.x)


@pytest.mark.parametrize("search_bound", [1, 2, 7, 40])
def test_find_points_matches_brute_force(search_bound):
    for a in range(-60, 61):
        if a == 0 or not is_fourth_power_free(a):
            continue
        curve = Curve(a)
        assert find_points(curve, search_bound) == _find_points_brute_force(
            curve, search_bound), a


@pytest.mark.parametrize("k", [1, 3, 5, 6, 7])
def test_find_points_two_torsion_on_range_bound(k):
    # (+-k, 0) on a = -k^2 has N = 0 at M = 1 (b1 = -k and b1 = k): the
    # one boundary value of b1 M^4 + b2 e^4 that isqrt_exact must accept
    for search_bound in (1, 40):
        points = find_points(Curve(-k * k), search_bound)
        assert [p for p in points if p.y == 0] == [affine(-k, 0), affine(k, 0)]


def test_find_points_only_torsion_on_a2():
    pts = find_points(Curve(2), 60)
    torsion_x = {t.x for t in Curve(2).torsion_subgroup().points}
    assert all(p.x in torsion_x for p in pts)


@pytest.mark.parametrize("search_bound", [1, 2, 7, 30, 100, 1000])
def test_sieve_coprime_masks_match_gcd(search_bound):
    # built from the masks of prime multiples; bit m of coprime[e] set iff
    # gcd(m, e) = 1, for m and e in [1, search_bound]
    coprime = bounds._sieve_tables(search_bound)[0]
    ms = range(1, search_bound + 1)
    assert coprime == [0] + [sum(1 << m for m in ms if math.gcd(m, e) == 1) for e in ms]


def test_sieve_memo_depends_on_no_history():
    # the memos fill in whatever order the searches come: each entry equals
    # the mask built afresh from its key, a modulus q keeps at most q^2
    # entries, and the points equal those of fresh ascending searches
    window = [a for a in range(-200, 201) if a != 0 and is_fourth_power_free(a)]
    bounds._sieve_tables.cache_clear()
    found = {}
    for a in reversed(window):
        for search_bound in (7, 100, 30):
            found[a, search_bound] = find_points(Curve(a), search_bound)
    for search_bound in (7, 30, 100):
        for memo in bounds._sieve_tables(search_bound)[2]:
            fresh = bounds._ResidueMasks(memo.q, search_bound)
            assert 0 < len(memo) <= memo.q**2, (search_bound, memo.q)
            assert all(mask == fresh[key] for key, mask in memo.items()), (search_bound, memo.q)
    for search_bound in (7, 30, 100):
        bounds._sieve_tables.cache_clear()
        for a in window:
            assert find_points(Curve(a), search_bound) == found[a, search_bound], (a, search_bound)


def test_small_sweep_no_violations():
    report = sweep(-20, 20, search_bound=60, workers=1)
    assert report.violations == []
    assert any(r.a == 3 and r.x == "1" for r in report.rows)
    assert report.curves_scanned > 30
    assert 16 in report.skipped
    # deterministic ordering
    keys = [(r.a, Fraction(r.x)) for r in report.rows]
    assert keys == sorted(keys)


@pytest.mark.parametrize("search_bound, workers", [(0, 1), (-1, 1), (5, 0), (5, -1), (0, 0)])
def test_sweep_rejects_non_positive_bound_or_workers(monkeypatch, search_bound, workers):
    # rejected before any curve is searched or any pool is started
    def never(*args, **kwargs):
        pytest.fail("sweep started work")

    monkeypatch.setattr(bounds, "find_points", never)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", never)
    name = "search_bound" if search_bound < 1 else "workers"
    with pytest.raises(AxHeightsError, match=f"{name} must be at least 1"):
        sweep(1, 3, search_bound, workers=workers)


def test_sweep_margins_by_class():
    report = sweep(-20, 20, search_bound=60, workers=1)
    for tag, margin in report.min_margins.items():
        assert margin > 0, f"class {tag} has nonpositive minimum margin"


def test_sweep_worker_count_never_changes_output():
    serial = sweep(-10, 10, search_bound=40, workers=1)
    parallel = sweep(-10, 10, search_bound=40, workers=2)
    assert serial.rows == parallel.rows
    assert serial.torsion_points == parallel.torsion_points


@pytest.fixture
def fake_pool(monkeypatch):
    """Stand in for the sweep's process pool: map runs in this process, and
    the max_workers of every pool the sweep opens is recorded."""
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    return sizes


@pytest.mark.parametrize(
    "a_min, a_max, workers, pool",
    [
        (1, 3, 1000, None),  # one chunk runs in-process
        (1, 3, None, None),
        (-200, 200, 1000, 47),  # 372 curves make 47 chunks of 8
        (-200, 200, 2, 2),
        (-200, 200, None, 5),  # the CPUs this process may use, 5 here
    ],
)
def test_sweep_pool_size_follows_its_work(monkeypatch, fake_pool, a_min, a_max, workers, pool):
    serial = sweep(a_min, a_max, 5, workers=1)
    assert fake_pool == []
    for name in ("cpu_count", "process_cpu_count"):
        monkeypatch.setattr(bounds.os, name, lambda: 5, raising=False)
    assert sweep(a_min, a_max, 5, workers=workers) == serial
    assert fake_pool == ([] if pool is None else [pool])


def test_sweep_counts_torsion_points():
    bound = 20
    report = sweep(-40, 40, bound, workers=1)
    expected = sum(
        sum(1 for p in find_points(Curve(a), bound) if Curve(a).is_torsion(p))
        for a in range(-40, 41)
        if a != 0 and is_fourth_power_free(a)
    )
    assert expected > 0
    assert report.torsion_points == expected


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_isolates_a_failing_curve(monkeypatch, fake_pool, workers):
    # 19 curves in 3 chunks, so workers=2 takes the pool path
    clean = sweep(1, 20, 5, workers=1)
    original = bounds.sweep_curve

    def fail_on_2(a, search_bound):
        if a == 2:
            raise ValueError("boom")
        return original(a, search_bound)

    monkeypatch.setattr(bounds, "sweep_curve", fail_on_2)
    report = sweep(1, 20, 5, workers=workers)
    assert fake_pool == ([] if workers == 1 else [2])
    assert report.failures == ["a=2: ValueError('boom')"]
    assert report.rows == [r for r in clean.rows if r.a != 2]
    assert report.torsion_points == clean.torsion_points - original(2, 5)[1]


def test_bound_checks_pickle_by_value(acceptance_sweep):
    # the pool sends every check of every row back to the parent process
    checks = [check for row in acceptance_sweep.rows for check in row.checks]
    assert len(checks) > 9000 and not hasattr(checks[0], "__dict__")
    for check in checks:
        for clone in (pickle.loads(pickle.dumps(check)), copy.copy(check)):
            assert type(clone) is BoundCheck and clone == check, check


def test_sweep_rows_hold_their_checks_in_order(acceptance_sweep):
    # the CLI's row record reads a row's checks by position
    order = ["Lang", "Corollary", "DiffUpper", "DiffLowerSqrt", "DiffLowerConst", "B2",
             "SumIdentity", "X2PSquare"]
    assert acceptance_sweep.rows
    for row in acceptance_sweep.rows:
        assert [c.theorem for c in row.checks] == order, (row.a, row.x)


def test_sweep_oracle_envelope(acceptance_sweep):
    # |hhat - (1/2)h(2^6 P)/4^6| = |height difference at 2^6 P| / 4^6, and
    # the two-sided difference theorem bounds that numerator by
    # (1/4)log|a| + 0.6 on every curve in range; every certified point must
    # sit inside the envelope
    for row in acceptance_sweep.rows:
        point = Point(Fraction(row.x), Fraction(row.y))
        gap = abs(row.canonical - limit_oracle(Curve(row.a), point, 6))
        envelope = (0.25 * math.log(abs(row.a)) + 0.6) / 4.0**6
        assert gap < envelope, (row.a, row.x, gap)


def test_sweep_runs_serially_when_no_pool_starts(monkeypatch, caplog):
    # a sandbox without working semaphores fails the pool's constructor with
    # ENOSYS; the sweep logs one warning and runs every curve in-process
    serial = sweep(-40, 40, 30, workers=1)

    class NoPool:
        def __init__(self, max_workers):
            raise OSError(38, "Function not implemented")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    with caplog.at_level(logging.WARNING, logger="axheights.bounds"):
        report = sweep(-40, 40, 30, workers=2)
    assert report.rows == serial.rows
    assert report.torsion_points == serial.torsion_points
    assert report.failures == []
    warnings = [r.getMessage() for r in caplog.records]
    assert len(warnings) == 1 and "process pool unavailable" in warnings[0]
