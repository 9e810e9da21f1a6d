"""Exception types shared across the package."""


class MzParityError(Exception):
    """Base class for every error raised by this package."""


class DomainError(MzParityError, ValueError):
    """An argument is outside its physical or numerical domain.

    Raised for wrong photon-number parity, magnetic numbers outside
    [-j, j], malformed half-integers and similar contract violations.
    """


class FrameError(MzParityError, ValueError):
    """An operation was applied to a state tagged with the wrong frame."""


class NormalizationError(DomainError):
    """State amplitudes do not form a unit-norm vector."""


class ConsistencyError(MzParityError, ArithmeticError):
    """An internal cross-check failed.

    The observable pipeline carries complex intermediates whose imaginary
    parts must cancel to roundoff; a residue above tolerance means the
    computation cannot be trusted and is reported instead of silently
    truncated.
    """


class NumericalLimitError(MzParityError, ArithmeticError):
    """A numerical limit did not converge to the requested accuracy."""
