"""Exception taxonomy shared across the package, and the config type checks."""

import math
import numbers


class DriftTuneError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(DriftTuneError):
    """Invalid configuration, parameters, or threshold strategy."""


class IngestError(DriftTuneError):
    """Malformed CSV input; the message names the offending line."""


class ModelError(DriftTuneError):
    """Classifier misuse: unfitted predict, empty chunk, dimension mismatch."""


class DetectorError(DriftTuneError):
    """Drift monitor misuse: out-of-range input or non-finite threshold."""


class PhaseError(DriftTuneError):
    """Race state machine misuse: candidate ops outside a comparison phase."""


class ReportError(DriftTuneError):
    """Summary over no results, or over results with mismatched shapes."""


def check_count(name: str, value: int, minimum: int = 0) -> None:
    """Raise ConfigError unless ``value`` is an int (not a bool) >= ``minimum``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_real(name: str, value: float) -> None:
    """Raise ConfigError unless ``value`` is a real number, not a bool and not
    NaN (every comparison with NaN is false, so it would pass range checks)."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool) or math.isnan(value):
        raise ConfigError(f"{name} must be a number (not a bool or NaN), got {value!r}")
