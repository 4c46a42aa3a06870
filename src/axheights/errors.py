"""Exception types shared across the package."""


class AxHeightsError(Exception):
    """Base class for all library errors."""


class ZeroInput(AxHeightsError):
    """An argument that must be nonzero was zero."""


class NotPrime(AxHeightsError):
    """A prime was required."""


class NotOddPrime(NotPrime):
    """An odd prime was required."""


class NotOnCurve(AxHeightsError):
    """The point does not satisfy y^2 = x^3 + a*x."""


class NotMinimal(AxHeightsError):
    """The curve coefficient is not fourth-power-free (or a lowest-terms
    shape that minimality guarantees failed to hold)."""


class TorsionPoint(AxHeightsError):
    """A nontorsion point was required."""


class ZeroX(AxHeightsError):
    """A point with nonzero x-coordinate was required."""


class InfinityPoint(AxHeightsError):
    """An affine point was required."""


class DepthExceeded(AxHeightsError):
    """Requested doubling depth is beyond the configured cap."""


class NoRationalHalf(AxHeightsError):
    """The halving quadratics have no rational root, i.e. the requested
    x-coordinate is not x(2P) for any rational P."""


class RowValidationFailed(AxHeightsError):
    """A generated extremal candidate failed its on-curve validation."""


class FactorizationBudgetExceeded(AxHeightsError):
    """Factoring gave up after the configured effort budget."""
