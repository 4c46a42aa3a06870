"""References kept beside the tests: valuations of rationals, the
squarefree decomposition and the rational square root.  The library itself
works on integer pairs and the one factorisation of a, and calls none of
them; the tests use them as plainly written checks."""

from fractions import Fraction

from axheights.arithmetic import _require_prime, factorize, isqrt_exact, ord_int
from axheights.errors import ZeroInput


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
