"""In-memory spans around the program's layer functions, wrapped from
outside.

``Tracer.wrap`` replaces a function where its callers look it up (a module
attribute, or a class attribute for methods) with a wrapper that records a
span: name, parent span, start and end.  Nothing under ``src/`` changes,
and ``Tracer.restore`` puts every original back, so untraced passes in the
same process run the program exactly as shipped.

Counters are taken at the same boundaries, but only after the traced pass
ends (``Tracer.settle``), so reading a written file's size does not count
against any layer.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []       # [name, parent index or None, start, end]
        self.counters = defaultdict(int)
        self._stack = []
        self._pending = []    # (counter, args, kwargs, result)
        self._patches = []    # (owner, attr, original raw attribute)

    # -- spans -----------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, parent, time.perf_counter(), None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def innermost(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def reset(self) -> None:
        self.spans, self._pending = [], []
        self.counters = defaultdict(int)

    # -- wrapping --------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, counter=None) -> bool:
        """Trace ``owner.attr`` as span ``name``; ``counter(counts, args,
        kwargs, result)`` runs at ``settle``.  Returns False, changing
        nothing, when the attribute does not exist."""
        raw = (owner.__dict__.get(attr) if isinstance(owner, type)
               else getattr(owner, attr, None))
        if raw is None:
            return False
        is_static = isinstance(raw, staticmethod)
        fn = raw.__func__ if is_static else raw
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if counter is not None:
                tracer._pending.append((counter, args, kwargs, result))
            return result

        self._patches.append((owner, attr, raw))
        setattr(owner, attr, staticmethod(wrapper) if is_static else wrapper)
        return True

    def replace(self, owner, attr: str, value) -> None:
        """Swap in ``value`` for ``owner.attr`` until ``restore``."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def settle(self) -> dict:
        """Run the deferred counters; returns the counts of this pass."""
        for counter, args, kwargs, result in self._pending:
            counter(self.counters, args, kwargs, result)
        self._pending = []
        return dict(self.counters)


def self_times(spans) -> dict:
    """Total self time per span name.

    A span's self time is its duration minus the part of its interval
    that its child spans cover (overlapping children count once).
    """
    children = defaultdict(list)
    for name, parent, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = defaultdict(float)
    for idx, (name, _parent, start, end) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[name] += (end - start) - covered
    return dict(out)


def call_counts(spans) -> dict:
    out = defaultdict(int)
    for name, *_ in spans:
        out[name] += 1
    return dict(out)
