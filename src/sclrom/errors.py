"""Exception types shared across the toolkit."""


class SclRomError(Exception):
    """Base class for every error raised by this package."""


class EmptySystem(SclRomError):
    """A vector system or snapshot set with no vectors."""


class ZeroVector(SclRomError):
    """A system vector with zero Euclidean norm."""

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"vector {index} has zero norm")


class NotOrthogonal(SclRomError):
    """Operation requires an orthogonal system and the input is not one."""


class DimensionMismatch(SclRomError):
    """Shapes of the supplied operands are inconsistent."""


class NonFiniteData(SclRomError):
    """Input data holds NaN or infinite entries."""


class NumericalFailure(SclRomError):
    """A numerical routine failed to converge or lost internal consistency."""


class DimensionTooSmall(SclRomError):
    """State dimension too small for the requested construction (needs n >= 2m)."""


class DegenerateHistory(SclRomError):
    """Snapshot history is numerically rank deficient."""

    def __init__(self, message, rank=None):
        self.rank = rank
        super().__init__(message)


class InsufficientData(SclRomError):
    """Not enough snapshots for the requested operation."""


class ConfigInvalid(SclRomError):
    """Simulator configuration fails a sanity bound."""


class IoFailure(SclRomError):
    """File could not be read or written."""


class ParseError(SclRomError):
    """Text input violates the snapshot CSV grammar."""

    def __init__(self, message, line, column):
        self.line = line
        self.column = column
        super().__init__(f"{message} (line {line}, column {column})")


class VersionUnsupported(SclRomError):
    """Model file declares a format version this build cannot read."""


class InvariantViolation(SclRomError):
    """Loaded data fails re-validation; the file is corrupt or inconsistent."""
