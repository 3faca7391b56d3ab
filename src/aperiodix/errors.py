"""Exception types shared across the package."""


class AperiodixError(Exception):
    """Base class for all package errors."""


class NotPrimitive(AperiodixError):
    """Occurrence matrix has no strictly positive power."""


class LengthLimit(AperiodixError):
    """A generated word would exceed the configured length cap."""


class SizeLimit(AperiodixError):
    """Matrix too large for the brute-force oracle."""


class UnknownFamily(AperiodixError):
    """Family name is not one of the built-ins."""


class Unrecognized(AperiodixError):
    """Group does not fall into the supported presentation kinds."""


class NoFixedPoint(AperiodixError):
    """No power of the substitution admits a seeded fixed point."""
