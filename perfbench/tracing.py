"""Outside-in span tracing for the benchmark's traced runs.

The program is not modified: the tracer replaces public functions and
methods of the program's modules with timing wrappers for the duration of a
traced op and restores them afterwards.  Each wrapper records a span (name,
layer, start, end, parent, op) in memory; nothing is written until the run
ends.  A layer's self time is its spans' durations minus the time their
child spans cover, and whatever the op's root span keeps for itself is
unattributed.

Iterators get *aggregate* spans: the time the consumer spends blocked in
``next()`` is summed into one span per iterator (the shard-output stream a
run waits on, the row stream a replay scans), so a span per item is never
kept.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional

_clock = time.perf_counter


@dataclass
class Span:
    name: str
    layer: str
    start: float
    parent: Optional[int]
    op: int
    end: float = 0.0
    #: Summed ``next()`` time of an aggregate (iterator) span; ``None`` for
    #: an ordinary span, whose duration is ``end - start``.
    busy: Optional[float] = None
    child_time: float = 0.0
    calls: int = 1
    failed: bool = False

    @property
    def duration(self) -> float:
        return self.busy if self.busy is not None else self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """In-memory span recorder plus the wrapper (un)installer."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op = -1
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------ #
    # Spans
    # ------------------------------------------------------------------ #
    def _open(self, name: str, layer: str, busy: Optional[float] = None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, layer, _clock(), parent, self.op, busy=busy))
        return len(self.spans) - 1

    def _close(self, index: int, failed: bool) -> None:
        span = self.spans[index]
        span.end = _clock()
        span.failed = failed
        if span.parent is not None:
            self.spans[span.parent].child_time += span.duration

    def call(self, name: str, layer: str, function: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``function(*args, **kwargs)`` inside a span."""
        index = self._open(name, layer)
        self._stack.append(index)
        failed = True
        try:
            result = function(*args, **kwargs)
            failed = False
            return result
        finally:
            self._stack.pop()
            self._close(index, failed)

    def iterate(self, name: str, layer: str, iterator: Iterator,
                on_item: Optional[Callable[[Any], None]] = None) -> Iterator:
        """Yield from *iterator*, summing the time blocked in ``next()``."""
        index = self._open(name, layer, busy=0.0)
        span = self.spans[index]
        span.calls = 0
        parent = self.spans[span.parent] if span.parent is not None else None
        while True:
            started = _clock()
            self._stack.append(index)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._stack.pop()
                elapsed = _clock() - started
                span.busy += elapsed
                span.end = started + elapsed
                if parent is not None:
                    parent.child_time += elapsed
            span.calls += 1
            if on_item is not None:
                on_item(item)
            yield item

    def top_layer(self) -> Optional[str]:
        return self.spans[self._stack[-1]].layer if self._stack else None

    # ------------------------------------------------------------------ #
    # Wrapper installation
    # ------------------------------------------------------------------ #
    def wrap(self, owner: Any, attr: str, name: str, layer: str) -> None:
        """Replace ``owner.attr`` (function, method, classmethod or
        staticmethod) with a span-recording wrapper until :meth:`restore`."""
        original = owner.__dict__[attr]
        tracer = self
        if isinstance(original, (classmethod, staticmethod)):
            function = original.__func__

            def inner(*args: Any, **kwargs: Any) -> Any:
                return tracer.call(name, layer, function, *args, **kwargs)

            replacement: Any = type(original)(inner)
        else:
            def replacement(*args: Any, **kwargs: Any) -> Any:
                return tracer.call(name, layer, original, *args, **kwargs)

        self.patch(owner, attr, replacement)

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # Summaries
    # ------------------------------------------------------------------ #
    def self_times(self, op: int) -> Dict[str, float]:
        """Self seconds per layer over one op's spans."""
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span.op == op:
                totals[span.layer] += span.self_time
        return dict(totals)

    def failures(self, layer_prefix: str) -> int:
        return sum(
            1 for span in self.spans if span.failed and span.layer.startswith(layer_prefix)
        )
