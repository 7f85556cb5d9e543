"""Exception types shared across the package."""


class MajgeomError(Exception):
    """Base class for all majgeom errors."""


class AllCoefficientsZero(MajgeomError):
    """Every polynomial coefficient is numerically zero."""


class NotHermitian(MajgeomError):
    """Matrix fails the Hermiticity tolerance."""


class PreconditionViolated(MajgeomError):
    """A documented spectral precondition does not hold."""


class UndefinedSolidAngle(MajgeomError):
    """Degenerate vertex configuration: the oriented solid angle has no value."""


class OrthogonalSelection(MajgeomError):
    """Pre- and postselected states are (numerically) orthogonal."""


class IncompleteContext(MajgeomError):
    """Projector set is not an orthogonal resolution of the identity."""


class ZeroDenominator(MajgeomError):
    """Conditional-probability denominator vanishes."""
