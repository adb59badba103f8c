"""Exception and warning types shared across the package."""


class RelkinError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDimensionError(RelkinError, ValueError):
    """An input has a shape or size the operation cannot accept."""


class UnsupportedOrderError(RelkinError, ValueError):
    """A derivative order outside the supported range was requested."""


class SingularDesignError(RelkinError):
    """A least-squares design matrix is rank deficient (e.g. repeated timestamps)."""


class DegenerateGeometryError(RelkinError):
    """A point-set factor is rank deficient, so the solve cannot proceed."""


class NonUniqueSolutionError(RelkinError):
    """Too few nodes for the basis system to pin down a unique solution."""


class ConfigError(RelkinError):
    """Invalid simulation, scenario file, or CLI configuration."""


class EstimationError(RelkinError):
    """A pipeline stage failed; the message carries the stage label."""


class DegenerateGeometryWarning(UserWarning):
    """A result is valid but the underlying geometry makes it non-unique."""
