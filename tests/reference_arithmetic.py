"""References kept beside the tests: valuations of rationals, the
squarefree decomposition, the rational square root and trial division one
prime at a time.  The library itself works on integer pairs and the one
factorisation of a, and calls none of them; the tests use them as plainly
written checks."""

from fractions import Fraction

from axheights.arithmetic import (
    TRIAL_BOUND,
    _require_prime,
    factorize,
    isqrt_exact,
    ord_int,
    small_primes,
)
from axheights.errors import ZeroInput


def trial_factorize(n: int) -> tuple[dict[int, int], int]:
    """Divide ``|n|`` by each prime below TRIAL_BOUND in turn, stopping at the
    first prime whose square exceeds what is left.

    Returns the prime powers found and the cofactor.  A cofactor below
    TRIAL_BOUND^2 has no smaller prime factor, so it is 1 or a prime, and a
    prime one is returned among the prime powers with cofactor 1.  Any other
    cofactor is a product of primes above TRIAL_BOUND.
    """
    n = abs(n)
    out: dict[int, int] = {}
    for p in small_primes():
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if 1 < n < TRIAL_BOUND**2:
        out[n] = 1
        n = 1
    return out, n


def ord_p(x: Fraction | int, p: int) -> int:
    """p-adic valuation of a nonzero rational (negative for denominators)."""
    _require_prime(p)
    x = Fraction(x)
    if x == 0:
        raise ZeroInput("valuation of 0 is undefined")
    return ord_int(x.numerator, p) - ord_int(x.denominator, p)


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write ``n = u * v**2`` with ``u`` squarefree and ``sign(u) = sign(n)``."""
    if n == 0:
        raise ZeroInput("0 has no squarefree decomposition")
    u, v = 1 if n > 0 else -1, 1
    for p, e in factorize(n).items():
        if e % 2:
            u *= p
        v *= p ** (e // 2)
    return u, v


def is_rational_square(x: Fraction | int) -> Fraction | None:
    """The nonnegative square root of ``x`` when ``x`` is a rational square."""
    x = Fraction(x)
    if x < 0:
        return None
    rn = isqrt_exact(x.numerator)
    if rn is None:
        return None
    rd = isqrt_exact(x.denominator)
    if rd is None:
        return None
    return Fraction(rn, rd)
