"""Exception types raised across the package.

Everything derives from AdskgError so callers can catch broadly; the leaf
classes match specific failure modes of the numerics (series breakdown,
parameter-range violations, degenerate linear algebra, ...).
"""


class AdskgError(Exception):
    """Base class for all package-specific errors."""


class PoleError(AdskgError):
    """Gamma function evaluated at a nonpositive integer."""


class DomainError(AdskgError):
    """Argument outside the admissible domain of a function."""


class BfViolation(AdskgError):
    """Mass squared below the Breitenlohner-Freedman bound."""


class EvenDimension(AdskgError):
    """Spatial dimension must be odd (and >= 3)."""


class CapabilityError(AdskgError):
    """Operation requires noninteger nu (C-modes / transfer matrix)."""


class SingularPoint(AdskgError):
    """Radial function evaluated at a point where it diverges."""


class ExceptionalBranch(AdskgError):
    """Minus-branch Jacobi modes requested outside nu in (0, 1)."""


class BasisMismatch(AdskgError):
    """Two momentum representations use different radial bases."""


class BandLimitExceeded(AdskgError):
    """Inversion residual shows the data is not band-limited as claimed."""


class RadialNodeError(AdskgError):
    """Rod inversion hit a zero of the regular radial function."""


class MagicFrequencyBlind(AdskgError):
    """Rod boundary data cannot see a label at a magic frequency (m12 = 0)."""


class UnsupportedDimension(AdskgError):
    """Angular machinery only implemented for d = 3."""


class SerializationError(AdskgError):
    """Malformed or unsupported rep file."""
