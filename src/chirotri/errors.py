"""Exception types shared across the package, and ``clip`` and
``cannot_access`` for echoing user text in their messages."""


def clip(text: str, keep: int = 40, quote: bool = True) -> str:
    """``text`` for an error line: whole when short, else its first ``keep``
    characters and its length; quoted by ``repr`` unless ``quote`` is false."""
    head = text[:keep]
    shown = repr(head) if quote else head
    return shown if len(text) <= keep else f"{shown}... ({len(text)} characters)"


def cannot_access(verb: str, path, exc: Exception) -> str:
    """``cannot <verb> <path>: <reason>`` for a file that could not be read
    or written. The path is written once, whole when short, else cut from the
    left to its last ``keep`` characters so that the file name stays; the
    reason is ``exc.strerror``, which unlike ``str(exc)`` does not repeat the
    path, or the exception's class name when it has none."""
    keep, path = 120, str(path)
    shown = path if len(path) <= keep else "..." + path[-keep:]
    reason = getattr(exc, "strerror", None) or type(exc).__name__
    return f"cannot {verb} {shown}: {reason}"


class ChirotriError(Exception):
    """Base class for all domain errors raised by this package."""


class GeneralPositionViolation(ChirotriError):
    """Three points were collinear where general position is required."""


class TooSmall(ChirotriError):
    """An operand has fewer elements than the operation supports."""


class TooLarge(ChirotriError):
    """A result would exceed the materialization/oracle size cap."""


class InvalidTriple(ChirotriError):
    """A sign query used repeated or out-of-range labels."""


class NotARootedChirotope(ChirotriError):
    """The distinguished element is not extreme, or hull neighbors are corrupt."""


class SharedEndpoint(ChirotriError):
    """A crossing query was made on segments sharing an endpoint."""


class OutOfRange(ChirotriError):
    """A numeric argument is outside the documented domain."""


class OracleTooLarge(ChirotriError):
    """Brute-force enumeration was requested beyond the size cap."""


class InternalInvariantViolation(ChirotriError):
    """A checked internal identity failed; indicates a malformed operand or a bug."""


class EmptyInput(ChirotriError):
    """An operation received an empty polynomial or sequence."""


class MalformedFile(ChirotriError):
    """A file does not conform to its documented format."""


class WriteFailed(ChirotriError):
    """An output file could not be written."""


class NumericalInstability(ChirotriError):
    """A numeric evaluation hit a denominator below tolerance."""


class ExprSyntaxError(ChirotriError):
    """Expression parse error, carrying a 1-based line and column."""

    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col
