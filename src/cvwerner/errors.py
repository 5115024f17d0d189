"""Exception hierarchy for cvwerner."""


class CvWernerError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(CvWernerError):
    """Operands have incompatible matrix dimensions."""


class HermiticityError(CvWernerError):
    """A matrix required to be Hermitian is not, within tolerance."""


class CutoffTooSmallError(CvWernerError):
    """The Fock cutoff cannot hold the requested state within its tail bound."""


class ParameterRangeError(CvWernerError, ValueError):
    """Parameters or cutoffs are outside the supported range."""


class NumericalConsistencyError(CvWernerError):
    """Two computations that must agree disagreed beyond tolerance."""


class DomainTooSmallError(CvWernerError):
    """A quadrature grid does not cover the integrand's effective support."""
