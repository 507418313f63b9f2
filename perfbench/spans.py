"""In-memory span recording around calls into the program's layers.

A :class:`Tracer` keeps every span (name, start, end, parent, thread) in
a list and writes nothing until the run ends.  Spans come from
:meth:`Tracer.span` blocks in the benchmark's own code and from wrappers
that :meth:`Tracer.wrap` installs on the program's functions for the
traced run only.  A wrapper replaces the attribute *where the caller
looks it up* (``repro.core.boost.sample_prr_lanes``, not
``repro.core.prr.sample_prr_lanes``), and :meth:`Tracer.restore` puts
every original back.

Parents are per thread: a span opened inside another span on the same
thread is its child.  A span opened on a thread with no open span has no
parent.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Sequence


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "thread", "value")

    def __init__(self, id, name, start, parent, thread):
        self.id = id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread
        self.value = 0.0  # a count recorded at the same boundary

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "start": self.start,
            "end": self.end, "parent": self.parent, "thread": self.thread,
            "value": self.value,
        }


class Tracer:
    """Collects spans in memory; installs and removes call wrappers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: List[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        sp = Span(
            next(self._ids), name, time.perf_counter(),
            stack[-1].id if stack else None, threading.get_ident(),
        )
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            self.spans.append(sp)

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        count: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` by a spanned version of it.

        ``count(args, kwargs, result)``, when given, returns the number
        stored in the span's ``value`` (samples drawn, bytes returned).
        Plain functions, methods and classmethods are supported.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw

        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = func(*args, **kwargs)
                if count is not None:
                    sp.value = float(count(args, kwargs, result))
                return result

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)
        self._patched.append((owner, attr, raw))

    def restore(self) -> None:
        """Put every wrapped attribute back, last wrapped first."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def to_dicts(self) -> List[dict]:
        return [s.to_dict() for s in sorted(self.spans, key=lambda s: s.start)]


def covered(start: float, end: float, intervals: Iterable[Sequence[float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if b > start and a < end
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(span: Span, children: Iterable[Span]) -> float:
    """``span``'s duration minus the part of it its children cover."""
    return span.duration - covered(
        span.start, span.end, [(c.start, c.end) for c in children]
    )


def children_of(spans: Sequence[Span], names: Iterable[str]) -> Dict[int, List[Span]]:
    """Spans named in ``names``, grouped by parent id."""
    wanted = set(names)
    out: Dict[int, List[Span]] = {}
    for s in spans:
        if s.name in wanted and s.parent is not None:
            out.setdefault(s.parent, []).append(s)
    return out
