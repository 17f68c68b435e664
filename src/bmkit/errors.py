"""Exception types shared across the toolkit."""

__all__ = [
    "BmkitError",
    "ProtocolError",
    "DesyncError",
    "MissingReferenceError",
    "MonotonicityError",
    "TraceError",
    "CodingError",
    "CalibrationError",
    "InsufficientDataError",
    "UndefinedConditionalError",
    "InvariantError",
]


class BmkitError(Exception):
    """Base class for all toolkit-specific errors."""


class ProtocolError(BmkitError):
    """A codec was driven in a way its protocol forbids (offset regression,
    non-monotone input bitmap, message for the wrong scheme)."""


class DesyncError(ProtocolError):
    """Encoder and decoder support sets no longer agree; the received payload
    cannot be applied without risking silent corruption."""


class MissingReferenceError(ProtocolError):
    """A message references codec state that is not available (out-of-order
    sequence number, or a support-set snapshot already evicted from the
    archive).  Recovery requires a full resync."""

    def __init__(self, msg, *, ahead=False):
        super().__init__(msg)
        #: True when the referenced state lies in the future (the message
        #: overtook one that has not arrived yet).  Callers may hold such a
        #: message and retry instead of resyncing.
        self.ahead = ahead


class MonotonicityError(BmkitError):
    """A buffer position moved from filled back to unfilled, which the fill
    model forbids."""


class TraceError(BmkitError):
    """A trace file failed parsing or validation."""

    def __init__(self, msg, *, line=None):
        if line is not None:
            msg = f"line {line}: {msg}"
        super().__init__(msg)
        self.line = line


class CodingError(BmkitError):
    """An entropy-coded byte stream is corrupt or truncated."""


class CalibrationError(BmkitError):
    """Curve calibration could not reach the requested target."""


class InsufficientDataError(BmkitError):
    """Too few samples to fit a curve."""


class UndefinedConditionalError(ValueError, BmkitError):
    """A conditional probability was requested for a conditioning event of
    probability zero."""


class InvariantError(BmkitError):
    """An internal consistency check failed.  Indicates a bug, not bad
    input."""
