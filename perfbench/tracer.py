"""Span tracer that times a program from outside, by wrapping its functions.

A wrapped call records one span: its name, start, end, the span that was
open when it started (its parent), an optional work count taken from its
arguments or result, and the tag that was current (set-up or timed part).
Spans stay in memory until the caller writes them out.

Wrappers are installed in the namespace where the caller looks the name up:
a module that did ``from .bank import align_gram`` holds its own reference,
so wrapping ``bank.align_gram`` would leave those calls untraced.
"""

from __future__ import annotations

import functools
import json
import time


class Span:
    __slots__ = ("name", "start", "end", "parent", "work", "tag")

    def __init__(self, name, start, parent, tag):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.work = None
        self.tag = tag

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.tag = "setup"
        self._open: list[int] = []
        self._saved = []

    def record(self, name, start, end, parent=None, work=None, tag=None) -> int:
        """Add a finished span directly; returns its index."""
        span = Span(name, start, parent, self.tag if tag is None else tag)
        span.end = end
        span.work = work
        self.spans.append(span)
        return len(self.spans) - 1

    def wrap(self, owner, attr, name, work=None) -> None:
        """Replace ``owner.attr`` by a traced version until ``restore``.

        ``work(args, kwargs, result)`` returns the span's work count.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = tracer._open[-1] if tracer._open else None
            span = Span(name, time.perf_counter(), parent, tracer.tag)
            tracer.spans.append(span)
            tracer._open.append(len(tracer.spans) - 1)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._open.pop()
            if work is not None:
                span.work = work(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._saved.append((owner, attr, original))

    def restore(self) -> None:
        """Put every original function back, last wrapped first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children.

        Spans come from one thread, so children nest inside their parent and
        do not overlap each other.
        """
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def dump(self, path) -> None:
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                    "end": s.end, "parent": s.parent,
                                    "work": s.work, "tag": s.tag}) + "\n")
