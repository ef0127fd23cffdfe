"""Exception types shared across the package."""

__all__ = [
    "ConfLearnError",
    "DomainMismatchError",
    "ParameterError",
    "ZeroMassEventError",
    "InvalidImagingMapError",
    "TotalConflictError",
    "DomainError",
    "NumericalError",
    "NoLimitError",
    "UnsupportedError",
    "ConfigError",
    "StepBudgetError",
]


class ConfLearnError(Exception):
    """Base class for all errors raised by this package."""


class DomainMismatchError(ConfLearnError):
    """Confidence values from different domains were mixed in one operation."""


class ParameterError(ConfLearnError):
    """A parameter lies outside its documented range."""


class ZeroMassEventError(ConfLearnError):
    """A conditioning-style update was requested on an event with no mass."""


class InvalidImagingMapError(ConfLearnError):
    """An imaging map is not an idempotent map into the target event."""


class TotalConflictError(ConfLearnError):
    """Evidence combination left no mass after conflict renormalization."""


class DomainError(ConfLearnError):
    """A belief state lies outside the region where the update is defined."""


class NumericalError(ConfLearnError):
    """A numeric computation produced non-finite intermediate values."""


class NoLimitError(ConfLearnError):
    """A full-confidence limit was requested but never detected."""


class UnsupportedError(ConfLearnError):
    """The learner does not register the requested representation."""


class ConfigError(ConfLearnError):
    """A run configuration file is malformed or inconsistent."""


class StepBudgetError(ParameterError):
    """A finite-time integration would take more steps than ``max_steps``."""
