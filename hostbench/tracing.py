"""In-memory span recording and the per-layer time ledger.

The traced run rebinds public entry points of the simulator (module
and class attributes) to wrappers built by :meth:`Tracer.wrap`.  Each
call records one span -- name, start, end, parent span, request id,
thread -- in a list kept in memory and written out as JSON lines when
the run ends.  Nothing here imports the simulator, so the arithmetic is
testable on synthetic span trees.

A span's *self time* is its duration minus the part of its interval
that its child spans cover.  The *ledger* sums self times per layer over
the client thread's spans and reports the rest of the measured wall
time as unattributed, so the components and the remainder always add up
to the wall time.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter, defaultdict
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple)


class Span(NamedTuple):
    """One finished call at a layer boundary (times in ns)."""

    name: str
    start: int
    end: int
    #: Index of the enclosing span on the same thread, or -1.
    parent: int
    #: Client request the call ran under (-1 outside any request).
    request: int
    thread: int
    #: Exception type name when the call raised, else "".
    error: str = ""


class Tracer:
    """Records spans and counts at wrapped call boundaries.

    ``request`` is set by the client loop before each request so every
    span, on any thread, carries the id of the request it ran under.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns
                 ) -> None:
        self.clock = clock
        self.request = -1
        self.counts: Counter = Counter()
        self._records: List[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def open(self, name: str) -> int:
        """Start a span; returns its index (close it with :meth:`close`)."""
        stack = self._stack()
        record = [name, self.clock(), 0, stack[-1] if stack else -1,
                  self.request, threading.get_ident(), ""]
        with self._lock:
            index = len(self._records)
            self._records.append(record)
        stack.append(index)
        return index

    def close(self, index: int, error: str = "") -> None:
        """End the span ``index`` (the innermost open one)."""
        record = self._records[index]
        record[2] = self.clock()
        record[6] = error
        self._stack().pop()

    def wrap(self, fn: Callable, name: str,
             observe: Optional[Callable] = None) -> Callable:
        """A drop-in replacement for ``fn`` that records a span per call.

        ``observe(counts, args, result)`` runs after a successful call
        to record counts at the same boundary.  ``functools.wraps``
        keeps ``__module__``/``__qualname__``, so a wrapped module-level
        function installed under its own name still pickles by
        reference (to the unwrapped function, in another process).
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(index, type(exc).__name__)
                raise
            self.close(index)
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return traced

    @property
    def spans(self) -> List[Span]:
        """Every span recorded so far (open ones have ``end == 0``)."""
        with self._lock:
            return [Span(*record) for record in self._records]

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack


class Patches:
    """Rebinds attributes and puts the originals back on :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def bind(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def defining_class(cls: type, attr: str) -> type:
    """The class in ``cls``'s MRO whose own namespace holds ``attr``."""
    for klass in cls.__mro__:
        if attr in klass.__dict__:
            return klass
    raise AttributeError(f"{cls.__name__} has no attribute {attr!r}")


def self_times(spans: Sequence[Span]) -> List[int]:
    """Each span's duration minus the union its children cover (ns)."""
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append(span.end - span.start - covered)
    return result


class Ledger(NamedTuple):
    """Wall time split into per-layer self time plus a remainder (ns)."""

    wall: int
    layers: Dict[str, int]
    unattributed: int

    def unattributed_pct(self) -> float:
        return 100.0 * self.unattributed / self.wall


def ledger(spans: Sequence[Span], selfs: Sequence[int], wall_ns: int,
           layer_of: Callable[[str], Optional[str]],
           thread: int) -> Ledger:
    """Attribute ``wall_ns`` of the client ``thread`` to layers.

    ``selfs`` are the spans' :func:`self_times`.  Spans on other threads
    (e.g. socket senders of the remote backend) overlap the client's own
    waiting and are left out; spans whose ``layer_of`` is ``None`` (the
    request roots) count as unattributed.
    """
    layers: Dict[str, int] = defaultdict(int)
    for span, own in zip(spans, selfs):
        layer = layer_of(span.name)
        if span.thread == thread and layer is not None:
            layers[layer] += own
    return Ledger(wall_ns, dict(layers), wall_ns - sum(layers.values()))


def totals(spans: Iterable[Span], selfs: Iterable[int]
           ) -> Dict[str, Tuple[int, int, int]]:
    """Per span name: ``(calls, total ns, self ns)``."""
    table: Dict[str, List[int]] = defaultdict(lambda: [0, 0, 0])
    for span, own in zip(spans, selfs):
        row = table[span.name]
        row[0] += 1
        row[1] += span.end - span.start
        row[2] += own
    return {name: tuple(row) for name, row in table.items()}


def write_jsonl(path, spans: Iterable[Span]) -> None:
    """Write one JSON object per span."""
    with open(path, "w", encoding="utf-8") as out:
        for index, span in enumerate(spans):
            out.write(json.dumps({"id": index, **span._asdict()}) + "\n")
