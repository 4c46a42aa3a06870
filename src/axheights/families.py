"""Extremal families whose heights approach the sharp bounds.

For a > 0 the candidates come from a 15-row table of polynomial families
(one per residue of a mod 16); a row whose x has no rational y raises
RowValidationFailed rather than returning a bogus point.  For a < 0 the
families come from Pell-type recurrences: a is built from a recurrence term
c (or d), the target x(2P) is c^2/4, c^2/16 or d^2, and the point itself is
recovered by exact point-halving.  The difference families are closed-form
identities.  FAMILIES names every family once, with its builder.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from .arithmetic import isqrt_exact
from .curve import Curve, Point, affine, x_after_doubling
from .errors import NoRationalHalf, RowValidationFailed, ZeroInput

_REDERIVE_HINT = (
    "re-derive the row in two steps: pick the small square target x(2P) for this "
    "residue class of a mod 16, then solve the halving quadratics for x(P)"
)


def _pell(n: int, u0: int, u1: int) -> int:
    """u_n of the recurrence u_n = 2 u_{n-1} + u_{n-2} from u_0 and u_1."""
    if n < 0:
        raise ZeroInput("index must be nonnegative")
    for _ in range(n):
        u0, u1 = u1, 2 * u1 + u0
    return u0


def pell_c(n: int) -> int:
    """c_0 = c_1 = 1, c_n = 2 c_{n-1} + c_{n-2} (half-companion Pell)."""
    return _pell(n, 1, 1)


def pell_d(n: int) -> int:
    """d_0 = 0, d_1 = 1, d_n = 2 d_{n-1} + d_{n-2} (Pell numbers)."""
    return _pell(n, 0, 1)


def pell_d_certificate(d: int) -> int | None:
    """z with 2 d^2 - z^2 = +-4, when one exists."""
    for target in (2 * d * d - 4, 2 * d * d + 4):
        if target >= 0:
            z = isqrt_exact(target)
            if z is not None:
                return z
    return None


@dataclass(frozen=True)
class ExtremalCandidate:
    """A generated (a, P) pair, validated against the curve equation."""

    family: str
    parameter: int
    a: int
    point: Point | None
    target_x2p: Fraction | None
    validated: bool


# Table rows for a > 0: a = mult * L1 * L2 * L3^2 and x = xmult * X1 * X2,
# with each linear form (p, q) meaning p*a1 + q.
_LANG_POS_ROWS: dict[int, tuple[int, tuple, tuple, tuple, int, tuple, tuple]] = {
    1: (1, (16, 1), (256, 17), (512, 33), 1, (16, 1), (512, 33)),
    2: (2, (16, 7), (32, 15), (64, 29), 1, (32, 15), (64, 29)),
    3: (1, (32, 13), (32, 15), (16, 7), 1, (16, 7), (32, 15)),
    4: (4, (8, 1), (8, 5), (8, 3), 2, (8, 1), (8, 3)),
    5: (1, (16, 5), (256, 81), (512, 161), 4, (16, 5), (512, 161)),
    6: (2, (16, 7), (32, 13), (64, 27), 1, (32, 13), (64, 27)),
    7: (1, (64, 23), (64, 25), (8, 3), 1, (64, 25), (8, 3)),
    8: (8, (2, 1), (16, 7), (32, 15), 1, (16, 7), (32, 15)),
    9: (1, (16, 7), (256, 111), (512, 223), 4, (16, 7), (512, 223)),
    10: (2, (8, 3), (16, 7), (32, 13), 1, (16, 7), (32, 13)),
    11: (1, (16, 5), (16, 7), (8, 3), 4, (16, 5), (8, 3)),
    12: (4, (4, 1), (16, 3), (32, 7), 1, (16, 3), (32, 7)),
    13: (1, (16, 3), (256, 47), (512, 95), 4, (16, 3), (512, 95)),
    14: (2, (8, 3), (16, 5), (32, 11), 1, (16, 5), (32, 11)),
    15: (1, (128, 55), (128, 57), (16, 7), 1, (16, 7), (128, 55)),
}

# Recurrence rows for a < 0: (sequence, index step, index offset, a divisor,
# x(2P) divisor).  a = -(c^4 - 1)/adiv with c = c_{step*n + offset}, and the
# target is c^2/xdiv; the residue-4 row uses d_n with a = -(d^4 - 4) and
# target d^2.
_LANG_NEG_ROWS: dict[int, tuple[str, int, int, int, int]] = {
    1: ("c", 512, 161, 256, 16),
    2: ("c", 32, 13, 16, 4),
    3: ("c", 16, 6, 16, 4),
    4: ("d", 1, 0, 0, 0),
    5: ("c", 512, 289, 256, 16),
    6: ("c", 32, 11, 16, 4),
    7: ("c", 64, 8, 256, 16),
    8: ("c", 32, 15, 16, 4),
    9: ("c", 512, 417, 256, 16),
    10: ("c", 32, 3, 16, 4),
    11: ("c", 16, 2, 16, 4),
    12: ("c", 16, 4, 16, 4),
    13: ("c", 512, 33, 256, 16),
    14: ("c", 32, 5, 16, 4),
    15: ("c", 64, 24, 256, 16),
}


def _lin(form: tuple[int, int], a1: int) -> int:
    return form[0] * a1 + form[1]


def family_lang_pos(residue: int, a1: int) -> ExtremalCandidate:
    """Candidate near the a > 0 lower bound for the given residue class.

    The table row is used verbatim; if the resulting x has no rational y
    the row is surfaced as RowValidationFailed with a re-derivation hint.
    """
    if residue not in _LANG_POS_ROWS:
        raise ZeroInput(f"residue must be 1..15, got {residue}")
    if a1 < 1:
        raise ZeroInput("a1 must be a positive integer")
    mult, l1, l2, l3, xmult, x1, x2 = _LANG_POS_ROWS[residue]
    a = mult * _lin(l1, a1) * _lin(l2, a1) * _lin(l3, a1) ** 2
    x = xmult * _lin(x1, a1) * _lin(x2, a1)
    family = f"lang-pos-{residue}"
    y2 = x**3 + a * x
    y = isqrt_exact(y2)
    if y is None:
        raise RowValidationFailed(
            f"{family}(a1={a1}): candidate x = {x} on a = {a} has no rational y; "
            + _REDERIVE_HINT
        )
    return ExtremalCandidate(family, a1, a, affine(x, y), None, True)


def family_lang_neg(residue: int, n: int) -> ExtremalCandidate:
    """Candidate near the a < 0 lower bound for the given residue class.

    Builds a and the target x(2P) from the recurrence row, then halves the
    target exactly; halve_point returns only points on the curve whose
    double has x = target, so the candidate needs no second check.
    NoRationalHalf signals an index whose Pell condition fails.
    """
    if residue not in _LANG_NEG_ROWS:
        raise ZeroInput(f"residue must be 1..15, got {residue}")
    if n < 0:
        raise ZeroInput("index must be nonnegative")
    seq, step, offset, adiv, xdiv = _LANG_NEG_ROWS[residue]
    family = f"lang-neg-{residue}"
    if seq == "d":
        d = pell_d(n)
        a = -(d**4 - 4)
        target = Fraction(d * d)
        if pell_d_certificate(d) is None:
            raise NoRationalHalf(
                f"{family}(n={n}): 2*{d}^2 - z^2 = +-4 has no integer solution"
            )
    else:
        index = step * n + offset
        c = pell_c(index)
        num = c**4 - 1
        if num % adiv != 0:
            raise NoRationalHalf(
                f"{family}(n={n}): c_{index} violates the index congruence "
                f"(c^4 - 1 not divisible by {adiv})"
            )
        a = -(num // adiv)
        target = Fraction(c * c, xdiv)
    if a >= 0:
        raise NoRationalHalf(f"{family}(n={n}): degenerate index, a = {a} >= 0")
    halves = halve_point(Curve(a), target)
    if not halves:
        raise NoRationalHalf(f"{family}(n={n}): x(2P) = {target} has no rational half")
    point = max(halves, key=lambda p: p.x)
    return ExtremalCandidate(family, n, a, point, target, True)


def family_diff(kind: str, a1: int) -> ExtremalCandidate:
    """Families approaching the height-difference bounds (exact identities).

    lower_pos: a = 4 a1^2 + 4 a1,        P = (1, 2 a1 + 1)
    lower_neg: a = -4 a1^2 - 4 a1 - 2,   P = (-1, 2 a1 + 1)
    upper:     a = 32 a1^2 + 32 a1 + 4,  P = (a/2, 4(2 a1+1)(8 a1^2+8 a1+1))
    """
    if a1 < 1:
        raise ZeroInput("a1 must be a positive integer")
    if kind == "lower_pos":
        a = 4 * a1 * a1 + 4 * a1
        point = affine(1, 2 * a1 + 1)
    elif kind == "lower_neg":
        a = -4 * a1 * a1 - 4 * a1 - 2
        point = affine(-1, 2 * a1 + 1)
    elif kind == "upper":
        a = 32 * a1 * a1 + 32 * a1 + 4
        point = affine(a // 2, 4 * (2 * a1 + 1) * (8 * a1 * a1 + 8 * a1 + 1))
    else:
        raise ZeroInput(f"unknown difference family {kind!r}")
    family = "diff-" + kind.replace("_", "-")  # the name --family takes
    if not Curve(a).contains(point):
        raise RowValidationFailed(f"{family}(a1={a1}): {point} not on curve")
    return ExtremalCandidate(family, a1, a, point, None, True)


#: every name `extremal --family` accepts, mapped to its one-parameter builder;
#: the lambdas look each builder up when called, so a wrapped builder runs
FAMILIES: dict[str, Callable[[int], ExtremalCandidate]] = {
    **{f"lang-pos-{r}": (lambda a1, r=r: family_lang_pos(r, a1)) for r in _LANG_POS_ROWS},
    **{f"lang-neg-{r}": (lambda n, r=r: family_lang_neg(r, n)) for r in _LANG_NEG_ROWS},
    "diff-lower-pos": lambda a1: family_diff("lower_pos", a1),
    "diff-lower-neg": lambda a1: family_diff("lower_neg", a1),
    "diff-upper": lambda a1: family_diff("upper", a1),
}


def halve_point(curve: Curve, xi: Fraction | int) -> list[Point]:
    """All rational points P with x(2P) = xi, one per x-coordinate.

    x(2P) = ((x^2 - a)/(2y))^2 is always a rational square, so xi = (s/q)^2
    in lowest terms is necessary; the halving quartic then splits into the
    two quadratics x^2 - u x + a with u = 2(s^2 +- r)/q^2, where
    r^2 = s^4 + a q^4 (eta = s r/q^3 has eta^2 = xi^3 + a xi).  Each root is
    (v +- delta)/q^2 with v = s^2 +- r and delta^2 = v^2 - a q^4, and the
    point has y = sqrt(N (N^2 + a q^4))/q^3 for the root numerator N.
    Returns [] when no rational half exists (or xi is not on the curve).
    """
    a = curve.a
    s, q = isqrt_exact(xi.numerator), isqrt_exact(xi.denominator)
    if s is None or q is None:
        return []
    q4 = q**4
    r = isqrt_exact(s**4 + a * q4)
    if r is None:
        return []  # xi is not the x-coordinate of a rational point
    numerators: set[int] = set()
    for v in {s * s + r, s * s - r}:
        delta = isqrt_exact(v * v - a * q4)
        if delta is not None:
            numerators.update((v + delta, v - delta))
    out = []
    for n in numerators:
        y = isqrt_exact(n * (n * n + a * q4))  # None off the curve, 0 at 2-torsion
        x0 = Fraction(n, q * q)
        if y and x_after_doubling(a, x0.numerator, x0.denominator) == (xi.numerator, xi.denominator):
            out.append(Point(x0, Fraction(y, q**3)))
    return sorted(out, key=lambda p: p.x)
