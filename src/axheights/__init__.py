"""Exact canonical heights, reduction data and sharp height bounds for the
curve family y^2 = x^3 + a*x over Q.

Heights follow the normalisation in which the canonical height is one-half
of PARI's ellheight.
"""

from .arithmetic import fourth_power_free_part, legendre_symbol
from .bounds import (
    BoundCheck,
    DiffBounds,
    LangBound,
    SweepReport,
    certify_point,
    check_b2_bounds,
    corollary_bound,
    diff_bounds,
    find_points,
    lang_lower_bound,
    sweep,
)
from .curve import (
    INFINITY,
    Curve,
    Point,
    TorsionStructure,
    affine,
)
from .errors import (
    AxHeightsError,
    DepthExceeded,
    InfinityPoint,
    NoRationalHalf,
    NotMinimal,
    NotOnCurve,
    NotOddPrime,
    NotPrime,
    RowValidationFailed,
    TorsionPoint,
    ZeroInput,
    ZeroX,
)
from .families import (
    ExtremalCandidate,
    family_diff,
    family_lang_neg,
    family_lang_pos,
    halve_point,
    pell_c,
    pell_d,
)
from .heights import (
    DenominatorRecord,
    HeightBreakdown,
    canonical_height,
    denominator_sequence,
    limit_oracle,
    naive_height,
    nonarch_sum_identity,
)
from .local_heights import (
    ArchHeightValue,
    NonArchLocalHeight,
    ReductionData,
    classify_reduction,
    lambda_archimedean,
    lambda_nonarch,
    z_value,
)

__version__ = "0.1.0"

__all__ = [
    "AxHeightsError", "ArchHeightValue", "BoundCheck", "Curve", "DenominatorRecord",
    "DepthExceeded", "DiffBounds", "ExtremalCandidate",
    "HeightBreakdown", "INFINITY", "InfinityPoint", "LangBound",
    "NoRationalHalf", "NonArchLocalHeight", "NotMinimal", "NotOddPrime",
    "NotOnCurve", "NotPrime", "Point", "ReductionData", "RowValidationFailed",
    "SweepReport", "TorsionPoint", "TorsionStructure", "ZeroInput", "ZeroX",
    "affine", "canonical_height", "certify_point", "check_b2_bounds",
    "classify_reduction", "corollary_bound", "denominator_sequence",
    "diff_bounds", "family_diff", "family_lang_neg",
    "family_lang_pos", "find_points", "fourth_power_free_part", "halve_point",
    "lambda_archimedean", "lambda_nonarch",
    "lang_lower_bound", "legendre_symbol", "limit_oracle", "naive_height",
    "nonarch_sum_identity", "pell_c", "pell_d", "sweep", "z_value",
]
