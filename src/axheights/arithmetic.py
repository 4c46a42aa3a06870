"""Exact integer and rational arithmetic helpers.

Everything works on Python ints and ``fractions.Fraction``, which already
provide arbitrary precision and lowest-terms normalisation with a positive
denominator.  Factoring first trial-divides by the sieved primes below
``TRIAL_BOUND`` in runs of 64: one gcd with a run's product, built on first
use and kept, skips a run that shares no factor with the cofactor, and the
search stops at the first run whose least prime, squared, exceeds the
cofactor, which is then 1 or a prime.  A cofactor left after every run goes
to Brent's variant of Pollard rho under an explicit effort budget; when the
budget runs out we raise instead of guessing.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from functools import cache, lru_cache

from .errors import FactorizationBudgetExceeded, NotOddPrime, NotPrime, ZeroInput

#: Trial division covers primes up to this bound before Pollard rho kicks in.
TRIAL_BOUND = 100_000

#: Iteration budget for Pollard rho on a single input.
RHO_BUDGET = 2_000_000


@cache
def small_primes() -> tuple[int, ...]:
    """All primes up to ``TRIAL_BOUND``, via a plain sieve."""
    sieve = bytearray([1]) * (TRIAL_BOUND + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(TRIAL_BOUND) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(sieve[p * p :: p])
    return tuple(itertools.compress(range(TRIAL_BOUND + 1), sieve))


#: Trial division tests this many consecutive primes with one gcd.
_RUN = 64


@cache
def _run_product(index: int) -> int:
    """The product of the trial primes of run ``index``."""
    return math.prod(small_primes()[_RUN * index : _RUN * (index + 1)])


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (the usual base set is exact below 3.3e24;
    beyond that the test is still correct with overwhelming probability)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")


def _pollard_brent(n: int, budget: list[int]) -> int:
    """One nontrivial factor of composite odd ``n`` (Brent's cycle variant)."""
    rng = random.Random(n)
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                budget[0] -= min(m, r - k)
                if budget[0] < 0:
                    raise FactorizationBudgetExceeded(
                        f"gave up factoring {n} after the configured effort budget"
                    )
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int, budget: int = RHO_BUDGET) -> dict[int, int]:
    """Prime factorisation of ``|n|`` as ``{prime: exponent}``.

    Raises ZeroInput for n = 0 and FactorizationBudgetExceeded when the
    cofactor resists the configured effort.
    """
    return dict(_factorize_cached(abs(n), budget))


@lru_cache(maxsize=65536)
def _factorize_cached(n: int, budget: int) -> tuple[tuple[int, int], ...]:
    if n == 0:
        raise ZeroInput("cannot factor 0")
    n = abs(n)  # factorize passes |n|; a direct call on the unwrapped function may not
    out: dict[int, int] = {}
    primes = small_primes()
    least = TRIAL_BOUND  # every prime below least is divided out
    for start in range(0, len(primes), _RUN):
        if primes[start] ** 2 > n:
            least = primes[start]
            break
        common = math.gcd(n, _run_product(start // _RUN))
        if common == 1:
            continue
        for p in primes[start : start + _RUN]:
            if common % p == 0:
                while n % p == 0:
                    out[p] = out.get(p, 0) + 1
                    n //= p
    if n < least * least:
        # no prime below least divides n, so n is 1 or a prime
        if n > 1:
            out[n] = 1
    else:
        shared = [budget]
        stack = [n]
        while stack:
            m = stack.pop()
            if is_prime(m):
                out[m] = out.get(m, 0) + 1
                continue
            root = isqrt_exact(m)
            if root is not None:
                stack.extend((root, root))
                continue
            d = _pollard_brent(m, shared)
            stack.extend((d, m // d))
    return tuple(sorted(out.items()))


def ord_int(n: int, p: int) -> int:
    """Exponent of ``p`` in the nonzero integer ``n``, for a base ``p >= 2``."""
    if p < 2:
        raise ValueError(f"valuation base {p} must be at least 2")
    if n == 0:
        raise ZeroInput("valuation of 0 is undefined")
    if p == 2:
        # the index of the lowest set bit, which n & -n isolates for either sign
        return (n & -n).bit_length() - 1
    e = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        e += 1
    return e


def isqrt_exact(n: int) -> int | None:
    """The integer square root of ``n`` if ``n`` is a perfect square."""
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


@lru_cache(maxsize=65536)
def fourth_power_free_part(a: int) -> tuple[int, int]:
    """Write ``a = a4f * s**4`` with ``a4f`` fourth-power-free.

    ``s`` is the product of ``p**(e // 4)`` over ``|a| = prod p**e``, read from
    the one factorisation of ``a``; every prime of ``a4f`` has exponent at most 3.
    """
    if a == 0:
        raise ZeroInput("0 has no fourth-power-free part")
    s = math.prod(p ** (e // 4) for p, e in factorize(a).items())
    return a // s**4, s


def is_fourth_power_free(a: int) -> bool:
    """True when no prime fourth power divides ``a``."""
    return fourth_power_free_part(a)[1] == 1


def legendre_symbol(n: int, p: int) -> int:
    """Standard Legendre symbol (n|p) for an odd prime p."""
    if p == 2 or not is_prime(p):
        raise NotOddPrime(f"{p} is not an odd prime")
    n %= p
    if n == 0:
        return 0
    return 1 if pow(n, (p - 1) // 2, p) == 1 else -1


def squarefree_divisors(n: int) -> list[int]:
    """Positive squarefree divisors of ``|n|``, ascending."""
    out = [1]
    for p in factorize(n):
        out += [d * p for d in out]
    return sorted(out)


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q`` or an integer literal; decimal-point and exponent input
    (``0.5``, ``1e3``) is rejected."""
    text = text.strip()
    if "." in text or "e" in text.lower():
        raise ValueError(f"decimal input {text!r} not accepted; use p/q")
    return Fraction(text)


def log_ratio(num: int, den: int) -> float:
    """log|num/den| for nonzero integers of any size, den > 0.

    ``math.log`` accepts big ints directly, so this never overflows.
    """
    return math.log(abs(num)) - math.log(den)
