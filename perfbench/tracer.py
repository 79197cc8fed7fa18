"""In-memory spans recorded around the program's public entry points.

The traced run of each workload installs wrappers from this file onto
the modules it exercises (nothing in the program itself records these
spans).  A span has a name, start, end, parent span and the id of the
benchmark operation it belongs to.  Spans on one thread nest through a
per-thread stack; a span recorded on another thread (the serving
daemon's event loop or dispatcher) names its parent explicitly.

Self time of a span is its duration minus the part of its interval
that its child spans cover.  The spans are written to one JSON file
when the run ends.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

#: Name prefix of the benchmark's own operation spans (tree roots).
OP_PREFIX = "op."

#: Span the benchmark opens around its own bookkeeping inside an
#: operation (IR statement counting); it counts as covered time but
#: belongs to no layer of the program.
BOOKKEEPING = "trace.bookkeeping"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int
    op: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: "list[Span]" = []
        self.counts: "collections.Counter[str]" = collections.Counter()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: "list[tuple[object, str, object, bool]]" = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> "list[Span]":
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """A span on this thread, child of the innermost open one."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(id=next(self._ids), name=name,
                    start=time.perf_counter(), end=0.0,
                    parent=parent.id if parent else 0,
                    op=parent.op if parent else 0)
        if parent is None and name.startswith(OP_PREFIX):
            span.op = span.id
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def record(self, name: str, start: float, end: float,
               parent: "Span | None") -> None:
        """A finished span measured elsewhere (another thread)."""
        span = Span(id=next(self._ids), name=name, start=start, end=end,
                    parent=parent.id if parent else 0,
                    op=parent.op if parent else 0)
        with self._lock:
            self.spans.append(span)

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    # -- wrapping --------------------------------------------------------

    def patch(self, owner: object, attr: str, make_wrapper) -> None:
        """Replace ``owner.attr`` with ``make_wrapper(original)``."""
        original = getattr(owner, attr)
        own = attr in vars(owner)
        wrapper = functools.wraps(original)(make_wrapper(original))
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, own))

    def wrap(self, owner: object, attr: str, name: str,
             after=None) -> None:
        """Record a span named ``name`` around every call of
        ``owner.attr``; ``after(result, args)`` runs once the span has
        closed (for counting)."""
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    result = original(*args, **kwargs)
                if after is not None:
                    after(result, args)
                return result
            return wrapper

        self.patch(owner, attr, make)

    def restore(self) -> None:
        """Undo every wrapper, newest first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- analysis --------------------------------------------------------

    def _children(self) -> "dict[int, list[Span]]":
        children: "dict[int, list[Span]]" = collections.defaultdict(list)
        for span in self.spans:
            if span.parent:
                children[span.parent].append(span)
        return children

    @staticmethod
    def _covered(span: Span, children: "list[Span]") -> float:
        """Length of ``span``'s interval covered by any child."""
        covered = 0.0
        edge = span.start
        for child in sorted(children, key=lambda c: c.start):
            start = max(child.start, edge)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                edge = end
        return covered

    def self_times(self, ops: "set[int] | None" = None) \
            -> "dict[tuple[str, str], float]":
        """(span name, operation kind) -> summed self time, over the
        operations ``ops`` (default: every span).  Spans outside any
        operation have the kind ``""``."""
        children = self._children()
        kinds = {op.id: op.name for op in self.ops()}
        totals: "dict[tuple[str, str], float]" = \
            collections.defaultdict(float)
        for span in self.spans:
            if ops is not None and span.op not in ops:
                continue
            key = (span.name, kinds.get(span.op, ""))
            totals[key] += span.duration - self._covered(
                span, children.get(span.id, []))
        return dict(totals)

    def ops(self) -> "list[Span]":
        return [s for s in self.spans if s.name.startswith(OP_PREFIX)]

    def uncovered_share(self) -> float:
        """Share of operation wall time no layer span covers."""
        children = self._children()
        total = uncovered = 0.0
        for op in self.ops():
            total += op.duration
            uncovered += op.duration - self._covered(
                op, children.get(op.id, []))
        return uncovered / total if total > 0 else 0.0

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {"spans": [asdict(s) for s in self.spans],
                    "counts": dict(self.counts)}
        path.write_text(json.dumps(document) + "\n")
