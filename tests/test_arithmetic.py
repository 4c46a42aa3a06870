import math
import random
from fractions import Fraction

import pytest

from axheights import arithmetic
from axheights.arithmetic import (
    TRIAL_BOUND,
    factorize,
    fourth_power_free_part,
    is_fourth_power_free,
    is_prime,
    legendre_symbol,
    log_ratio,
    ord_int,
    parse_rational,
    small_primes,
    squarefree_divisors,
)
from axheights.curve import Curve
from axheights.errors import (
    FactorizationBudgetExceeded,
    NotOddPrime,
    NotPrime,
    ZeroInput,
)
from axheights.local_heights import bad_primes

from reference_arithmetic import (
    extremal_candidates,
    extremal_cells,
    is_rational_square,
    ord_p,
    squarefree_decompose,
    trial_factorize,
)


@pytest.mark.parametrize(
    "x,p,expected",
    [(48, 2, 4), (Fraction(1, 4), 2, -2), (7, 5, 0), (Fraction(-7, 8), 2, -3)],
)
def test_ord_p_examples(x, p, expected):
    assert ord_p(x, p) == expected


def test_ord_p_errors():
    with pytest.raises(ZeroInput):
        ord_p(0, 2)
    with pytest.raises(NotPrime):
        ord_p(6, 4)


@pytest.mark.parametrize("p", [1, 0, -1, -2])
def test_ord_int_rejects_base_below_two(p):
    # p = 1 and p = -1 would divide forever, p = 0 would divide by zero
    with pytest.raises(ValueError, match="must be at least 2"):
        ord_int(12, p)


def test_ord_p_additive():
    rng = random.Random(101)
    for _ in range(300):
        x = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6)) * rng.choice([1, -1])
        y = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        p = rng.choice([2, 3, 5, 7, 11, 13])
        assert ord_p(x * y, p) == ord_p(x, p) + ord_p(y, p)


@pytest.mark.parametrize("n,expected", [(12, (3, 2)), (-18, (-2, 3)), (7, (7, 1))])
def test_squarefree_examples(n, expected):
    assert squarefree_decompose(n) == expected


def test_squarefree_roundtrip_fuzzed():
    rng = random.Random(7)
    for _ in range(400):
        n = rng.randint(1, 10**7) * rng.choice([1, -1])
        u, v = squarefree_decompose(n)
        assert u * v * v == n
        assert (u > 0) == (n > 0)
        # independent squarefreeness check by trial division
        m = abs(u)
        for q in range(2, int(math.isqrt(m)) + 1):
            assert m % (q * q) != 0


@pytest.mark.parametrize("a,expected", [(48, (3, 2)), (-32, (-2, 2)), (7, (7, 1))])
def test_fourth_power_free_examples(a, expected):
    assert fourth_power_free_part(a) == expected


def test_fourth_power_free_roundtrip():
    rng = random.Random(13)
    for _ in range(300):
        a = rng.randint(1, 10**8) * rng.choice([1, -1])
        a4f, s = fourth_power_free_part(a)
        assert a4f * s**4 == a
        assert is_fourth_power_free(a4f)


def _one_factorisation_inputs() -> list[int]:
    """Every nonzero |a| <= 5000, then 200 seeded products of prime powers
    (primes below 1000, exponents 0-9) times one prime above 10^10."""
    rng = random.Random(29)
    small = [p for p in range(2, 1000) if is_prime(p)]
    products = []
    for _ in range(200):
        big = rng.randrange(10**10, 10**11)
        while not is_prime(big):
            big += 1
        powers = math.prod(p ** rng.randint(0, 9) for p in rng.sample(small, 4))
        products.append(rng.choice([1, -1]) * powers * big)
    return [a for a in range(-5000, 5001) if a != 0] + products


def test_one_factorisation_matches_the_old_rules():
    # the rules that factored v (from a = u v^2) and 2a are the reference
    for a in _one_factorisation_inputs():
        u, v = squarefree_decompose(a)
        w, s = squarefree_decompose(v)
        assert fourth_power_free_part(a) == (u * w * w, s), a
        assert bad_primes(Curve(a)) == sorted(factorize(2 * a)), a


@pytest.mark.parametrize(
    "x,expected",
    [
        (Fraction(9, 4), Fraction(3, 2)),
        (Fraction(2), None),
        (Fraction(0), Fraction(0)),
        (Fraction(-4), None),
    ],
)
def test_is_rational_square_examples(x, expected):
    assert is_rational_square(x) == expected


def test_is_rational_square_exhaustive_small():
    # the stated grid: all x = i/j with |i|, j <= 200
    for i in range(-200, 201):
        for j in range(1, 201):
            x = Fraction(i, j)
            r = is_rational_square(x)
            ok = (
                x >= 0
                and math.isqrt(x.numerator) ** 2 == x.numerator
                and math.isqrt(x.denominator) ** 2 == x.denominator
            )
            assert (r is not None) == ok
            if r is not None:
                assert r >= 0 and r * r == x


@pytest.mark.parametrize("n,p,expected", [(1, 3, 1), (-1, 3, -1), (2, 7, 1), (3, 3, 0)])
def test_legendre_examples(n, p, expected):
    assert legendre_symbol(n, p) == expected


def test_legendre_errors():
    with pytest.raises(NotOddPrime):
        legendre_symbol(3, 2)
    with pytest.raises(NotOddPrime):
        legendre_symbol(3, 9)


def test_legendre_against_brute_force():
    for p in [q for q in range(3, 100) if is_prime(q)]:
        residues = {(k * k) % p for k in range(1, p)}
        for n in range(-p, p + 1):
            sym = legendre_symbol(n, p)
            if n % p == 0:
                assert sym == 0
            elif n % p in residues:
                assert sym == 1
            else:
                assert sym == -1


def test_factorize_roundtrip():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(2, 10**12)
        fac = factorize(n)
        out = 1
        for p, e in fac.items():
            assert is_prime(p)
            out *= p**e
        assert out == n


def test_small_primes():
    primes = small_primes()
    assert len(primes) == 9592 and primes[-1] == 99991
    below = [n for n in range(2, 2000) if all(n % d for d in range(2, math.isqrt(n) + 1))]
    assert [p for p in primes if p < 2000] == below


def test_factorize_budget_gives_up():
    # a 66-digit semiprime is far beyond a 2000-iteration rho budget
    p = 2**127 - 1
    q = 2**89 - 1
    assert is_prime(p) and is_prime(q)
    with pytest.raises(FactorizationBudgetExceeded):
        factorize(p * q, budget=2000)


def test_factorize_backtracks_when_one_batch_meets_both_factors():
    # both primes lie above TRIAL_BOUND, and the first batch of Brent's rho
    # meets them at once (gcd = n), so the factor is found by stepping back
    # from the batch's saved start one term at a time
    arithmetic._factorize_cached.cache_clear()
    assert 100003 > TRIAL_BOUND and is_prime(100003) and is_prime(100057)
    assert factorize(10006000171) == {100003: 1, 100057: 1}


def _assert_matches_trial_division(n):
    # the primes below TRIAL_BOUND and their exponents as the reference finds
    # them; the rest are primes above it whose product is its cofactor
    found, rest = trial_factorize(n)
    fac = factorize(n)
    assert {p: fac[p] for p in found if p in fac} == found, n
    large = {p: e for p, e in fac.items() if p not in found}
    assert all(p > TRIAL_BOUND and is_prime(p) for p in large), n
    assert math.prod(p**e for p, e in large.items()) == rest, n


def _run_boundary_inputs():
    """p*q, p^2 and q^2 for the last prime p of each run of 64 trial primes
    and the first prime q of the next (311 and 313 first), then 99,991^2."""
    primes = small_primes()
    out = [99991**2]
    for start in range(64, len(primes), 64):
        p, q = primes[start - 1], primes[start]
        out += [p * q, p * p, q * q]
    return out


def _extremal_cell_a():
    """The distinct a of the benchmark's extremal cells."""
    assert len(extremal_cells()) == 98
    return sorted({cand.a for cand in extremal_candidates()})


def test_factorize_matches_trial_division_below_20000():
    for n in range(1, 20001):
        found, rest = trial_factorize(n)
        assert rest == 1 and factorize(n) == found, n


def test_factorize_matches_trial_division_across_run_boundaries():
    inputs = _run_boundary_inputs()
    assert 311 * 313 in inputs and len(inputs) == 1 + 3 * 149
    for n in inputs + [99991 * 100003, 100003 * 100057]:
        _assert_matches_trial_division(n)


def test_factorize_matches_trial_division_on_extremal_cells():
    a_values = _extremal_cell_a()
    assert len(a_values) == 78 and max(a_values, key=abs).bit_length() > 100
    for a in a_values:
        _assert_matches_trial_division(a)


def test_factorize_proves_small_cofactors_prime_without_a_primality_test(monkeypatch):
    # every cofactor below TRIAL_BOUND^2 = 10^10 is 1 or a prime once the
    # trial primes are out, so only a larger one reaches is_prime and rho
    calls = {"is_prime": 0, "rho": 0}

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        return wrapper

    monkeypatch.setattr(arithmetic, "is_prime", counted("is_prime", arithmetic.is_prime))
    monkeypatch.setattr(arithmetic, "_pollard_brent", counted("rho", arithmetic._pollard_brent))
    arithmetic._factorize_cached.cache_clear()
    for n in [*range(1, 20001), *_run_boundary_inputs(), 99991 * 100003]:
        assert n < 10**10
        factorize(n)
    assert calls == {"is_prime": 0, "rho": 0}
    assert factorize(100003 * 100057) == {100003: 1, 100057: 1}
    assert calls["is_prime"] > 0 and calls["rho"] > 0


def test_factorize_shares_one_memo_entry_across_signs():
    arithmetic._factorize_cached.cache_clear()
    n = 2**5 * 3 * 100003 * 100057
    assert factorize(n) == factorize(-n)
    info = arithmetic._factorize_cached.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def test_factorize_rejects_zero():
    with pytest.raises(ZeroInput, match="cannot factor 0"):
        factorize(0)


def test_divisors():
    assert squarefree_divisors(12) == [1, 2, 3, 6]
    assert squarefree_divisors(-50) == [1, 2, 5, 10]


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-12") == Fraction(-12)
    for text in ("0.5", "1e-3", "1E3"):  # Fraction alone would read 1/1000 and 1000
        with pytest.raises(ValueError, match="not accepted; use p/q"):
            parse_rational(text)


def test_log_ratio_huge():
    n = 10**5000 + 7
    assert abs(log_ratio(n, 1) - 5000 * math.log(10)) < 1e-9
    assert abs(log_ratio(-n, 1) - 5000 * math.log(10)) < 1e-9
    assert abs(log_ratio(1, n) + 5000 * math.log(10)) < 1e-9
