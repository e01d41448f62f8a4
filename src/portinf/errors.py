"""Exception types shared across the package.

Three rough families: shape/input problems (usage errors), data problems,
and numerical failures. The CLI maps these onto exit codes.
"""


class PortinfError(Exception):
    """Base class for all package-specific errors."""


# --- shape / input -----------------------------------------------------

class ShapeMismatch(PortinfError):
    pass


class LengthMismatch(PortinfError):
    pass


class BadLength(PortinfError):
    """Vector length is not n(n+1)/2 for any integer n."""


class AsymmetricInput(PortinfError):
    pass


class NonPositiveWeight(PortinfError):
    pass


class NonPositiveRfr(PortinfError):
    """Disastrous rate must be strictly positive for the first-order law."""


class BandwidthTooLarge(PortinfError):
    pass


# --- data --------------------------------------------------------------

class DataError(PortinfError):
    """Base for problems of the input data rather than of the options."""


class ParseError(DataError):
    pass


class EmptyPanel(DataError):
    pass


class ZeroVolatilityWindow(DataError):
    pass


# --- numerical ---------------------------------------------------------

class NumericalError(PortinfError):
    """Base for failures of the numerics rather than of the inputs."""


class SingularMatrix(NumericalError):
    pass


class SingularTheta(NumericalError):
    pass


class SingularProjection(NumericalError):
    pass


class SingularJacobian(NumericalError):
    pass


class SingularWeighting(NumericalError):
    pass


class SingularCquad(NumericalError):
    pass


class NotPositiveDefinite(NumericalError):
    pass


class LostPositiveDefiniteness(NumericalError):
    pass


class RankDeficient(NumericalError):
    pass


class RepeatedEigenvalue(NumericalError):
    pass


class EigGapTooSmall(NumericalError):
    pass


class ZeroMeanVector(NumericalError):
    pass


class ZeroSharpe(NumericalError):
    pass


class NoConvergence(NumericalError):
    pass


class DegenerateCorrelation(NumericalError):
    pass
