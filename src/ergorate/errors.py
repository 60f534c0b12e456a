"""Exception types shared across the package, and the one wall-clock
budget clock that raises Timeout."""

import contextlib
import contextvars
import time


class ErgorateError(Exception):
    """Base class for all package errors."""


class PrecisionExhausted(ErgorateError):
    """A decimal-string frequency ran out of certified digits.

    Carries the partial expansion (everything certified so far) in
    ``partial`` so callers can still inspect it.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class Uncertified(ErgorateError):
    """A query reached past the certified prefix of an expansion."""


class NotIrrational(ErgorateError):
    """A Diophantine predicate was asked about a rational test frequency."""


class HypothesisNotMet(ErgorateError):
    """A lower-bound construction's gap hypothesis fails at the given index."""


class DomainError(ErgorateError):
    """Argument outside the domain of a closed-form evaluation."""


class DimensionTooLarge(ErgorateError):
    """A grid sweep would exceed the configured point budget."""


class Timeout(ErgorateError):
    """A run or scenario exceeded its wall-clock budget (see deadline)."""


class ConfigError(ErgorateError):
    """Config file could not be parsed; message carries line diagnostics."""


# (end on the monotonic clock, Timeout message) of the innermost deadline
_DEADLINE = contextvars.ContextVar("deadline", default=None)


@contextlib.contextmanager
def deadline(seconds, label: str):
    """Within the block, tick() raises Timeout once `seconds` have passed.
    A deadline inside another keeps the earlier end, so seconds = None
    keeps the enclosing one; the enclosing one is back after the block."""
    inner = outer = _DEADLINE.get()
    if seconds is not None:
        end = time.monotonic() + seconds
        if outer is None or end < outer[0]:
            inner = (end, f"{label} exceeded budget of {seconds}s")
    token = _DEADLINE.set(inner)
    try:
        yield
    finally:
        _DEADLINE.reset(token)


def tick() -> None:
    """Raise Timeout if the innermost open deadline has passed; outside
    every deadline, do nothing.  Long loops call it once per block."""
    current = _DEADLINE.get()
    if current is not None and time.monotonic() > current[0]:
        raise Timeout(current[1])
