"""Exception types shared across the package."""


class CTForgeError(Exception):
    """Base class for every error this package raises deliberately."""


class DomainError(CTForgeError, ValueError):
    """A parameter lies outside the supported domain."""


class PoleError(CTForgeError, ArithmeticError):
    """Gamma requested at a nonpositive integer."""


class NonRationalError(CTForgeError, ArithmeticError):
    """A value expected to be rational kept a nonzero sqrt(pi) power."""


class NonAffineError(CTForgeError):
    """A denominator factor has degree > 1 in the extraction variable."""


class ZeroConstantError(CTForgeError):
    """A denominator factor vanishes at the origin of the extraction variable
    but is not a pure monomial to an integer power, so no Laurent expansion exists."""


class ResidualVariableError(CTForgeError):
    """Iterated extraction finished but variables are still present."""


class ConfigError(CTForgeError, ValueError):
    """Invalid quadrature configuration (radius or sample-count rule)."""


class ParseError(CTForgeError, ValueError):
    """Malformed polynomial or integrand text."""


class ExponentOverflowError(CTForgeError, OverflowError):
    """An exponent outgrew the fixed-width field of a packed monomial."""
