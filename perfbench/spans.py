"""In-memory call spans around the program's public entry points.

A ``Tracer`` records one span per wrapped call: name, start, end, parent
span and task id.  Wrappers are installed at the attribute the caller
resolves (a module global such as ``herglotzlab.cli.duality_sweep`` or a
class attribute such as ``TruncatedSeries.values_at``) and removed again
afterwards, so untraced phases run the program exactly as shipped.

Span names are ``<layer>.<entry>``; the layer is the part before the
first dot.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    task: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Span and counter store for one run; ``task`` is set by the loop."""

    clock: Callable[[], float] = time.perf_counter
    task: int = 0
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)

    def wrap(self, fn: Callable, name: str, hook: Optional[Callable] = None) -> Callable:
        """``fn`` recorded as span ``name``; ``hook(tracer, result, args,
        kwargs)`` turns the call into counters after it returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(self.spans), name, self.clock(), 0.0,
                        self._stack[-1].id if self._stack else None, self.task)
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if hook is not None:
                hook(self, result, args, kwargs)
            return result

        return traced

    def count(self, key: str, value: float = 1.0) -> None:
        """Add ``value`` to the counter ``key`` of the current task."""
        per_task = self.counters.setdefault(self.task, {})
        per_task[key] = per_task.get(key, 0.0) + value

    def extreme(self, key: str, value: float, pick: Callable = max) -> None:
        """Keep the max (or ``pick``) of ``value`` for the current task."""
        per_task = self.counters.setdefault(self.task, {})
        per_task[key] = pick(per_task[key], value) if key in per_task else value

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "task": s.task}) + "\n")


class Installed:
    """Context manager that swaps wrappers in at (owner, attribute) pairs
    and restores the originals on exit.

    ``targets`` holds ``(owner, attr, name, hook)``; ``owner`` is a module or
    a class.  A classmethod is unwrapped, traced, and re-wrapped.
    """

    def __init__(self, tracer: Tracer, targets):
        self.tracer = tracer
        self.targets = targets
        self._saved = []

    def __enter__(self):
        for owner, attr, name, hook in self.targets:
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                traced = classmethod(self.tracer.wrap(original.__func__, name, hook))
            else:
                traced = self.tracer.wrap(original, name, hook)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, traced)
        return self.tracer

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False


def self_times(spans) -> dict:
    """Span id -> its duration minus the part its child spans cover.

    Children are clipped to the parent interval and overlapping children
    are merged, so the result never goes negative.
    """
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = s.duration - covered
    return out


def outermost_seconds(spans, names) -> float:
    """Busy seconds in calls to ``names`` that have no ancestor span among
    ``names`` (so recursion and re-entry are counted once)."""
    names = set(names)
    by_id = {s.id: s for s in spans}
    total = 0.0
    for s in spans:
        if s.name not in names:
            continue
        parent = by_id.get(s.parent)
        while parent is not None and parent.name not in names:
            parent = by_id.get(parent.parent)
        if parent is None:
            total += s.duration
    return total
