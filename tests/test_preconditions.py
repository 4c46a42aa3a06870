"""The three preconditions of the public entry points: a fourth-power-free
model, a nontorsion point and a prime p.

Each rule has one check and one message (`Curve._require_minimal`,
`Curve._require_nontorsion`, `arithmetic._require_prime`).  Every entry
point is tried on each bad input it takes, alone and together with the
others, so the order of its checks is pinned as well.  The argument
guards of the family builders and of z_value are pinned at the end.
"""

import pytest

from axheights.bounds import check_b2_bounds
from axheights.cli import build_parser
from axheights.curve import INFINITY, Curve, affine
from axheights.errors import NotMinimal, NotPrime, TorsionPoint, ZeroInput, ZeroX
from axheights.families import family_diff, family_lang_neg, family_lang_pos, pell_c
from axheights.heights import denominator_sequence, limit_oracle, nonarch_sum_identity
from axheights.local_heights import (
    classify_reduction,
    lambda_archimedean,
    lambda_nonarch,
    z_value,
)

from reference_arithmetic import ord_p

MINIMAL, NON_MINIMAL = Curve(3), Curve(48)  # 48 = 3 * 2^4
P, TORSION = affine(1, 2), affine(0, 0)
P_48 = affine(4, 16)  # (1, 2) on a = 3 carried to a = 48 by s = 2

MESSAGES = {
    NotMinimal: "a = 48 is not fourth-power-free",
    TorsionPoint: "(0, 0) is torsion; its canonical height is 0",
    NotPrime: "9 is not prime",
}


def classify(*argv):
    args = build_parser().parse_args(["classify", *argv])
    return args.func(args)


# (entry point, its arguments, the exception it raises or None)
CASES = [
    (limit_oracle, (MINIMAL, TORSION), TorsionPoint),
    (limit_oracle, (NON_MINIMAL, P_48), None),
    (limit_oracle, (NON_MINIMAL, TORSION), TorsionPoint),
    (denominator_sequence, (MINIMAL, TORSION, 2), TorsionPoint),
    (denominator_sequence, (NON_MINIMAL, P_48, 2), NotMinimal),
    (denominator_sequence, (NON_MINIMAL, TORSION, 2), NotMinimal),
    (check_b2_bounds, (MINIMAL, TORSION), TorsionPoint),
    (check_b2_bounds, (NON_MINIMAL, P_48), NotMinimal),
    (check_b2_bounds, (NON_MINIMAL, TORSION), NotMinimal),
    (nonarch_sum_identity, (MINIMAL, TORSION), TorsionPoint),
    (nonarch_sum_identity, (NON_MINIMAL, P_48), NotMinimal),
    (nonarch_sum_identity, (NON_MINIMAL, TORSION), NotMinimal),
    (classify_reduction, (NON_MINIMAL, 2), NotMinimal),
    (classify_reduction, (MINIMAL, 9), NotPrime),
    (classify_reduction, (NON_MINIMAL, 9), NotMinimal),
    (lambda_nonarch, (MINIMAL, TORSION, 3), TorsionPoint),
    (lambda_nonarch, (NON_MINIMAL, P_48, 2), NotMinimal),
    (lambda_nonarch, (MINIMAL, P, 9), NotPrime),
    (lambda_nonarch, (NON_MINIMAL, TORSION, 2), NotMinimal),
    (lambda_nonarch, (NON_MINIMAL, P_48, 9), NotMinimal),
    (lambda_nonarch, (MINIMAL, TORSION, 9), TorsionPoint),
    (lambda_nonarch, (NON_MINIMAL, TORSION, 9), NotMinimal),
    (lambda_archimedean, (MINIMAL, TORSION), TorsionPoint),
    (lambda_archimedean, (NON_MINIMAL, P_48), None),
    (lambda_archimedean, (NON_MINIMAL, TORSION), TorsionPoint),
    (classify, ("--a", "48", "--strict-minimal"), NotMinimal),
    (classify, ("--a", "3", "--prime", "9"), NotPrime),
    (classify, ("--a", "48", "--strict-minimal", "--prime", "9"), NotMinimal),
    (classify, ("--a", "48", "--prime", "9"), NotPrime),  # classifies a = 3
    (classify, ("--a", "48"), None),
    (ord_p, (6, 9), NotPrime),
    (ord_p, (0, 9), NotPrime),
]
RAISING = [case for case in CASES if case[2] is not None]


def _case_id(case):
    entry, args, expected = case
    return f"{entry.__name__}-{'-'.join(map(str, args))}-{getattr(expected, '__name__', 'ok')}"


@pytest.mark.parametrize("entry, args, expected", CASES, ids=map(_case_id, CASES))
def test_precondition_exception_types(entry, args, expected):
    if expected is None:
        entry(*args)
        return
    with pytest.raises(expected) as info:
        entry(*args)
    assert type(info.value) is expected


@pytest.mark.parametrize("entry, args, expected", RAISING, ids=map(_case_id, RAISING))
def test_precondition_messages(entry, args, expected):
    # one wording per rule, whichever entry point states it
    with pytest.raises(expected) as info:
        entry(*args)
    assert str(info.value) == MESSAGES[expected]


#: (entry point, its arguments, the exception it raises) for argument
#: guards that no other test reaches
GUARDS = [
    (pell_c, (-1,), ZeroInput),  # a negative index
    (family_lang_pos, (0, 1), ZeroInput),  # no residue class 0
    (family_lang_neg, (0, 0), ZeroInput),
    (family_lang_neg, (3, -1), ZeroInput),  # a negative index
    (family_diff, ("sideways", 1), ZeroInput),  # no such family
    (z_value, (Curve(-2), INFINITY), ZeroX),
]


@pytest.mark.parametrize("entry, args, expected", GUARDS, ids=map(_case_id, GUARDS))
def test_argument_guards(entry, args, expected):
    with pytest.raises(expected) as info:
        entry(*args)
    assert type(info.value) is expected
