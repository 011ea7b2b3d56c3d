"""In-memory spans recorded around the program's public layer calls.

The benchmark never edits the program: it replaces a module attribute or
a class method with a timing wrapper before the program runs.  Each call
records ``(id, parent id, name, start, end, thread)``; the parent is the
innermost wrapped call still open on the same thread.  Spans stay in a
list until the process ends and are then written out in one piece, so
recording costs two clock reads and an append.

A layer's self time is its span's duration minus the durations of its
direct child spans.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

class SpanRecorder:
    def __init__(self) -> None:
        self.spans: List[tuple] = []
        #: Clock-free work counts gathered by wrapper hooks.
        self.counts: Dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._count_lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, amount: float) -> None:
        with self._count_lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def timed(self, name: str, fn: Callable, before: Optional[Callable] = None,
              after: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span.  ``before(args)`` runs ahead of each
        call and ``after(recorder, args, result, state)`` after it, with
        ``state`` what ``before`` returned; both sit outside the span."""
        perf = time.perf_counter
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            state = before(args) if before else None
            stack.append(span_id)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans.append((span_id, parent, name, start, end,
                              threading.get_ident()))
            if after:
                after(self, args, result, state)
            return result

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper

    def wrap(self, owner, attr: str, name: str,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> bool:
        """Wrap ``owner.attr`` (a module function or a method defined on
        the class ``owner`` itself); False when there is nothing to wrap."""
        target = (owner.__dict__.get(attr) if isinstance(owner, type)
                  else getattr(owner, attr, None))
        if target is None or getattr(target, "__wrapped_by_perfbench__", False):
            return False
        setattr(owner, attr, self.timed(name, target, before, after))
        return True

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counts": self.counts}, handle)


def load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def self_times(spans: Sequence[Sequence]) -> Dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {span[0]: span[4] - span[3] for span in spans}
    for span in spans:
        parent = span[1]
        if parent in own:
            own[parent] -= span[4] - span[3]
    return own


def summarize(spans: Sequence[Sequence]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, total duration and total self time."""
    own = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for span in spans:
        entry = out.setdefault(span[2], {"calls": 0, "total": 0.0, "self": 0.0})
        entry["calls"] += 1
        entry["total"] += span[4] - span[3]
        entry["self"] += own[span[0]]
    return out

