"""Exception hierarchy for the repro package.

All exceptions raised by this library derive from :class:`ReproError` so
that callers can catch library-specific failures without masking unrelated
bugs (``except ReproError`` instead of a bare ``except Exception``).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by the repro library."""


class ConfigurationError(ReproError):
    """An object was constructed or configured with invalid parameters."""


class AddressError(ReproError, ValueError):
    """A DRAM address (row, column, bank, ...) is out of range or malformed."""


class TimingViolationError(ReproError):
    """A command sequence violates a JEDEC timing constraint.

    The command scheduler raises this when asked to *enforce* standard
    timings.  Deliberate violations (the whole point of QUAC) go through
    the explicit violation APIs instead and never raise.
    """

    def __init__(self, message: str, parameter: str = "", required_ns: float = 0.0,
                 actual_ns: float = 0.0):
        super().__init__(message)
        #: Name of the violated JEDEC parameter (e.g. ``"tRAS"``).
        self.parameter = parameter
        #: Minimum legal delay in nanoseconds.
        self.required_ns = required_ns
        #: Delay that was actually scheduled.
        self.actual_ns = actual_ns


class ProtocolError(ReproError):
    """A DRAM command is illegal in the device's current state.

    Examples: reading a bank with no open row, activating a row in a bank
    that already has an open row without an intervening precharge (when
    strict-protocol checking is enabled).
    """


class CharacterizationError(ReproError):
    """Entropy characterization could not produce a usable result.

    Raised for instance when a module has no segment carrying at least one
    full SHA input block of entropy, or when a requested data pattern was
    never characterized.
    """


class InsufficientEntropyError(ReproError):
    """A TRNG was asked to emit more entropy than its source can supply."""


class BitstreamError(ReproError, ValueError):
    """A bit sequence has the wrong dtype, shape, or values outside {0, 1}."""


class HealthTestFailure(ReproError):
    """A continuous health test rejected the raw source output."""


class RemoteExecutionError(ReproError):
    """The remote execution backend could not complete a task set.

    Raised when every configured worker host has failed (tasks are
    transparently requeued onto surviving hosts first), when a worker
    subprocess could not be spawned, or when the wire protocol is
    violated.  A task whose *function* raises is different: that
    exception travels back over the wire and re-raises as itself.
    """
