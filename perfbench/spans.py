"""In-memory span tracer that wraps public calls of ``repro`` from outside.

The benchmark never edits the program: a traced child process replaces a
few public functions and methods with timing wrappers before any design is
built.  Each call becomes a span ``(id, name, start, end, parent)``; all
spans of one benchmark run share its run id.  Spans stay in memory and are
written out once, when the child ends.

A layer's self time is the duration of its spans minus the part covered by
their child spans.  Because the program is single-threaded here, spans nest
strictly, so child coverage is the sum of the direct children's durations.
"""

from __future__ import annotations

import functools
import json
import os
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple


class Tracer:
    """Collects nested spans and per-layer counters for one child run."""

    def __init__(self, run_id: str, enabled: bool) -> None:
        self.run_id = run_id
        #: Whether this run traces at all; ``active`` is on only while the
        #: measured flows run, so set-up checks never record spans.
        self.enabled = enabled
        self.active = False
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        # [name_id, start, end, parent_index]; the list index is the span id.
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.counters: Dict[str, float] = {}

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return found

    def begin(self, name: str) -> int:
        """Open a span named *name* under the innermost open span."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([self._name_id(name), perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        """Close the span opened as *index* (must be the innermost)."""
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def span(self, name: str) -> "_SpanContext":
        """Return a context manager recording a span (benchmark-level spans)."""
        return _SpanContext(self, name)

    def count(self, key: str, amount: float = 1) -> None:
        """Add *amount* to counter *key*."""
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- wrapping ----------------------------------------------------------

    def wrap(self, func: Callable, name: str, after: Optional[Callable] = None) -> Callable:
        """Return *func* wrapped so that each call records a span *name*.

        *after*, when given, is called as ``after(result, args, kwargs)``
        inside the span's bookkeeping (outside its timed interval) to
        record counters from the call's result.
        """
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            index = tracer.begin(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.end(index)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def patch(self, owner: object, attribute: str, name: str,
              after: Optional[Callable] = None) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper."""
        setattr(owner, attribute, self.wrap(getattr(owner, attribute), name, after))

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Return ``(self_seconds, calls)`` per span name."""
        covered = [0.0] * len(self.spans)
        for name_id, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        for (name_id, start, end, _parent), child in zip(self.spans, covered):
            name = self._names[name_id]
            self_s[name] = self_s.get(name, 0.0) + (end - start - child)
            calls[name] = calls.get(name, 0) + 1
        return self_s, calls

    def write(self, path: str) -> None:
        """Write every span (times in ns from the first span) as JSON."""
        origin = self.spans[0][1] if self.spans else 0.0
        document = {
            "run_id": self.run_id,
            "fields": ["id", "name", "start_ns", "end_ns", "parent"],
            "names": self._names,
            "spans": [
                [index, name_id, round((start - origin) * 1e9),
                 round((end - origin) * 1e9), parent]
                for index, (name_id, start, end, parent) in enumerate(self.spans)
            ],
            "counters": self.counters,
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(document, handle, separators=(",", ":"))


class _SpanContext:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.index = -1

    def __enter__(self) -> None:
        if self.tracer.active:
            self.index = self.tracer.begin(self.name)

    def __exit__(self, *exc) -> None:
        if self.index >= 0:
            self.tracer.end(self.index)
