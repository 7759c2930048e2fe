"""Output checks on the bytes a workload served.

Every request's output passes :meth:`StreamCheck.served` (length, ones
count, and the kept prefix); after the timed loop the prefix is compared
bit for bit with a fresh generator's replay.  A failed check counts
toward the run's ``failed`` total exactly like a failed request.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

#: Largest tolerated |fraction of ones - 0.5| over everything served.
BIAS_TOLERANCE = 0.01


class Check(NamedTuple):
    """One named pass/fail verdict with a human-readable detail."""

    name: str
    ok: bool
    detail: str


class StreamCheck:
    """Accumulates what a client loop was served.

    ``keep_requests`` is how many leading responses are kept verbatim
    for the replay comparison (``None`` keeps all of them).
    """

    def __init__(self, keep_requests: Optional[int] = None) -> None:
        self.keep_requests = keep_requests
        self.prefix = bytearray()
        self.requests = 0
        self.bytes_requested = 0
        self.bytes_served = 0
        self.ones = 0

    def served(self, requested: int, data: bytes) -> bool:
        """Record one response; False when it is short or long."""
        self.requests += 1
        self.bytes_requested += requested
        self.bytes_served += len(data)
        self.ones += int.from_bytes(data, "big").bit_count()
        if self.keep_requests is None or self.requests <= self.keep_requests:
            self.prefix += data
        return len(data) == requested

    @property
    def bits_served(self) -> int:
        return 8 * self.bytes_served

    def ones_fraction(self) -> float:
        return self.ones / self.bits_served if self.bytes_served else 0.0


def first_difference(expected: bytes, actual: bytes) -> Optional[int]:
    """Index of the first bit where the streams differ, else ``None``.

    A stream that is a strict prefix of the other differs at the end of
    the shorter one.
    """
    if expected == actual:
        return None
    for index, (a, b) in enumerate(zip(expected, actual)):
        if a != b:
            return 8 * index + (8 - (a ^ b).bit_length())
    if len(expected) != len(actual):
        return 8 * min(len(expected), len(actual))
    return None


def replay_check(name: str, expected: bytes, actual: bytes) -> Check:
    """Pass when ``actual`` reproduces ``expected`` bit for bit."""
    where = first_difference(expected, actual)
    if where is None:
        return Check(name, True, f"{8 * len(expected)} bits identical")
    return Check(name, False, f"streams differ at bit {where} "
                              f"({8 * len(expected)} vs "
                              f"{8 * len(actual)} bits)")


def stream_checks(stream: StreamCheck) -> List[Check]:
    """Length and bias checks over everything a loop was served."""
    fraction = stream.ones_fraction()
    return [
        Check("bytes_served", stream.bytes_served == stream.bytes_requested
              and stream.requests > 0,
              f"{stream.bytes_served} of {stream.bytes_requested} bytes "
              f"in {stream.requests} requests"),
        Check("bias", abs(fraction - 0.5) < BIAS_TOLERANCE,
              f"ones fraction {fraction:.5f} over "
              f"{stream.bits_served} bits"),
    ]
