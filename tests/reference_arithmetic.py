"""References kept beside the tests: valuations of rationals, the
squarefree decomposition, the rational square root, trial division one
prime at a time, and the archimedean Tate series summed over all its 40
terms.  The library itself works on integer pairs and the one
factorisation of a, and calls none of them; the tests use them as plainly
written checks.

Run as a script (``PYTHONPATH=src python tests/reference_arithmetic.py``),
it compares the library's series with the 40-term sum on 3,000 seeded
inputs, the points of the extremal cells and kP, k <= 300, of P = (-1, 4)
on a = -17, and needs neither pytest nor hypothesis; building the 300
multiples takes most of its half minute."""

import math
import random
import sys
from fractions import Fraction

from axheights.arithmetic import (
    TRIAL_BOUND,
    _require_prime,
    factorize,
    isqrt_exact,
    log_ratio,
    ord_int,
    small_primes,
)
from axheights.curve import _BRACKET_BITS, Curve, _doubling_logs, affine
from axheights.errors import AxHeightsError, ZeroInput
from axheights.families import _LANG_NEG_ROWS, FAMILIES
from axheights.heights import _to_minimal
from axheights.local_heights import _lambda_inf


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


# ---------------------------------------------------------------------------
# The archimedean local height summed over every one of its 40 terms
# ---------------------------------------------------------------------------


def step_neg(t: float) -> float:
    """One a < 0 doubling of t = sqrt|a|/x."""
    s = t * t
    return 4.0 * t * (1.0 - s) / ((1.0 + s) ** 2)


def z_pos(w: float) -> float:
    """The a > 0 series term z(w) = 1 - 8(w(1-w))^2."""
    s = w * (1.0 - w)
    return 1.0 - 8.0 * s * s


def _step_pos(w: float, z: float) -> float:
    v = 1.0 - w
    return 4.0 * w * v * (w * w + v * v) / z


def _translated_start(a: int, m: int, d: int) -> tuple[float, float]:
    if m == 0:
        return 0.0, 1.0
    lq = log_ratio(m, d) - 0.5 * math.log(a)
    if lq > 300.0:
        return lq, math.exp(-lq)
    q = math.exp(lq)
    return math.log1p(q), 1.0 / (1.0 + q)


def lambda_inf_40_terms(a: int, m: int, d: int) -> float:
    """The archimedean local height at x = m/d (lowest terms, d > 0) with
    the Tate series summed over all 40 terms, in the library's order of
    operations, and with no stop: the reference for the library's series,
    which stops once its float sum is final.  It raises where that sum
    raises (ValueError where rounding takes the a > 0 iterate w out of
    [0, 1] and z below 0 within 40 terms)."""
    series = 0.0
    if a < 0:
        log_alpha, log_d2, log_num, log_den = _doubling_logs(a, m, d)
        first = 0.25 * (log_alpha - log_d2)
        t = math.exp(0.5 * math.log(-a) - (log_num - log_den))
        weight = 0.25
        for _ in range(40):
            weight *= 0.25
            series += weight * math.log1p(t * t)
            t = step_neg(t)
    else:
        la = math.log(a)
        log_u0, w = _translated_start(a, m, d)
        z = z_pos(w)
        first = 0.25 * la + 0.5 * log_u0 + 0.125 * math.log(z)
        weight = 0.125
        for _ in range(40):
            weight *= 0.25
            w = _step_pos(w, z)
            z = z_pos(w)
            series += weight * math.log(z)
    return first + series - math.log(64 * abs(a) ** 3) / 12.0


def extremal_cells() -> list[tuple[str, int]]:
    """The benchmark's 98 extremal (family, parameter) cells: every lang-pos
    row and diff family on its four-point parameter grid, every lang-neg
    index up to recurrence index 30 and lang-neg-4 for n <= 12."""
    cells = [(f"lang-pos-{r}", a1) for r in range(1, 16) for a1 in (205, 865, 3651, 15399)]
    cells += [(f"diff-{kind}", a1) for kind in ("lower-pos", "lower-neg", "upper")
              for a1 in (42, 749, 13335, 237137)]
    cells += [(f"lang-neg-{r}", n) for r, (seq, step, offset, _, _) in _LANG_NEG_ROWS.items()
              if seq == "c" for n in range((30 - offset) // step + 1)]
    cells += [("lang-neg-4", n) for n in range(13)]
    return cells


def family_candidates() -> list:
    """The candidate of each family at parameters 0..3, where it exists and
    its |a| is below 10^60 (factoring 2a above that can take seconds)."""
    out = []
    for name, build in FAMILIES.items():
        for param in range(4):
            try:
                candidate = build(param)
            except AxHeightsError:  # a failed row, no rational half, param 0
                continue
            if abs(candidate.a) < 10**60:
                out.append(candidate)
    return out


def extremal_candidates() -> list:
    """The candidates of the extremal cells that build one; cells with no
    rational half or a degenerate index build none."""
    out = []
    for name, param in extremal_cells():
        try:
            out.append(FAMILIES[name](param))
        except AxHeightsError:
            continue
    return out


#: multiples kP of P = (-1, 4) on a = -17 on both sides of the bracket
#: crossover (x(21P) is the first past it), up to 300P (45,817 digits); 256P
#: is 2^8 P
MULTIPLES_K = (*range(1, 41), 50, 64, 89, 100, 128, 150, 200, 256, 300)


def series_inputs(seed: int, count: int, multiples) -> list[tuple[int, int, int]]:
    """(a, m, d) in lowest terms for the series: count seeded random inputs
    (both signs of a; m and d on both sides of the bracket crossover, d = 1
    and large d; x >= 0 for a > 0, and no 2-torsion x for a < 0), the
    points of the extremal candidates and of lang-pos-7 at a1 = 10^6 on
    their minimal models, and kP of P = (-1, 4) on a = -17 for each k in
    multiples."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a = rng.choice([-1, 1]) * rng.choice([rng.randint(1, 10**6), rng.getrandbits(130) + 1])
        bits = rng.choice([rng.randint(1, _BRACKET_BITS - 1), rng.randint(_BRACKET_BITS, 4000)])
        m = rng.getrandbits(bits) | 1
        d = rng.choice([1, rng.getrandbits(rng.randint(1, 4000)) | 1])
        g = math.gcd(m, d)
        m, d = m // g, d // g
        if a < 0 and rng.random() < 0.5:
            m = -m
        if a > 0 or m * (m * m + a * d * d) != 0:
            out.append((a, m, d))
    for cand in [*extremal_candidates(), FAMILIES["lang-pos-7"](10**6)]:
        minimal, q, _ = _to_minimal(Curve(cand.a), cand.point)
        out.append((minimal.a, q.x.numerator, q.x.denominator))
    c, base = Curve(-17), affine(-1, 4)
    for k in multiples:
        x = c.multiply(k, base).x
        out.append((-17, x.numerator, x.denominator))
    return out


def series_outcome(f, a: int, m: int, d: int) -> str:
    """f(a, m, d)'s float by .hex(), or the name of what it raised."""
    try:
        value = f(a, m, d)
    except (ArithmeticError, ValueError) as error:
        return type(error).__name__
    return float(value).hex()


def series_mismatches(inputs) -> list[tuple[int, int, int]]:
    """The inputs where _lambda_inf's value, or the exception it raises,
    differs from lambda_inf_40_terms's."""
    return [
        (a, m, d)
        for a, m, d in inputs
        if series_outcome(lambda *x: _lambda_inf(*x).value, a, m, d)
        != series_outcome(lambda_inf_40_terms, a, m, d)
    ]


if __name__ == "__main__":
    checked = series_inputs(2035, 3000, range(1, 301))
    bad = series_mismatches(checked)
    print(f"Python {sys.version.split()[0]}: {len(checked)} inputs, {len(bad)} mismatches")
    for a, m, d in bad[:5]:
        print(f"  a = {a}, m has {m.bit_length()} bits, d has {d.bit_length()} bits")
    sys.exit(1 if bad else 0)
