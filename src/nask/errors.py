"""Exception hierarchy shared across the package, and the number-type
tests that parameter validators raise ConfigError on."""

import numbers


def is_integer(value) -> bool:
    """A Python or numpy integer; bools are not parameters' integers."""
    if type(value) is int:  # the common case, without the ABC check
        return True
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A Python or numpy real number, bools excluded."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


class NaskError(Exception):
    """Base class for all domain errors raised by this package."""


class SchemaError(NaskError):
    """Attribute data does not conform to the declared schema."""


class DatasetError(NaskError):
    """Dataset files or in-memory dataset structure are invalid."""


class GramFormatError(NaskError):
    """A Gram matrix file cannot be parsed or fails structural checks."""


class GramComputeError(NaskError):
    """Numeric failure while computing or validating a Gram matrix."""


class InvalidGramError(NaskError):
    """A Gram matrix has values unsuitable for the requested operation."""


class SvmError(NaskError):
    """SVM training or prediction received inconsistent inputs."""


class DegenerateClassError(SvmError):
    """A classification subproblem has fewer than one example per side."""


class ConfigError(NaskError):
    """Invalid run configuration (flags, grids, thresholds, indices)."""
