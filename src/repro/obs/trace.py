"""Lightweight per-query span tracing.

A :class:`Tracer` records a tree of :class:`Span`\\ s per query —
``query → parse → plan → execute → operators → scan[slice]`` — each
carrying wall-clock timing plus whatever attributes the instrumented
code attaches (rows scanned, blocks fetched, cache outcome).

Design constraints, in order:

1. **Zero cost when off.**  An untraced statement carries ``None`` for
   its trace; its span sites (:func:`optional_span`) enter a shared
   no-op context manager and compute no attribute.
2. **Cheap when on.**  Spans are ``__slots__`` objects; entering one is
   two ``perf_counter`` calls and a list append.  No thread-locals, no
   globals — a span stack belongs to one statement
   (:meth:`Tracer.for_statement`), so concurrent statements never see
   each other's open spans, and within a statement the tree is mutated
   only by the coordinating thread:
   parallel scan workers just read the clock via :meth:`Tracer.now` and
   the coordinator attaches their spans in slice order via
   :meth:`Tracer.emit`.
3. **Exportable.**  ``to_dict``/``to_json`` give the structured view;
   ``to_chrome_trace`` emits the ``trace_event`` JSON that
   ``chrome://tracing`` / Perfetto load directly.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext
from typing import ContextManager, Dict, Iterator, List, Optional

__all__ = ["Span", "Tracer", "optional_span"]


class Span:
    """One timed node of a query's execution tree."""

    __slots__ = ("name", "attrs", "children", "start_s", "end_s")

    def __init__(self, name: str, start_s: float) -> None:
        self.name = name
        self.attrs: Dict[str, object] = {}
        self.children: List["Span"] = []
        self.start_s = start_s
        self.end_s: Optional[float] = None

    @property
    def duration_s(self) -> float:
        end = self.end_s if self.end_s is not None else self.start_s
        return end - self.start_s

    def set(self, key: str, value: object) -> None:
        self.attrs[key] = value

    def update(self, attrs: Dict[str, object]) -> None:
        self.attrs.update(attrs)

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> Optional["Span"]:
        """First span named ``name`` in this subtree (pre-order)."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "attrs": dict(self.attrs),
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, {self.duration_s * 1e3:.3f}ms, "
            f"{len(self.children)} children)"
        )


class _SpanContext:
    """Context manager that closes its span (and pops the stack)."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.span.set("error", f"{exc_type.__name__}: {exc}")
        self._tracer.end(self.span)


class Tracer:
    """Collects span trees; one root per traced query."""

    def __init__(self) -> None:
        self.roots: List[Span] = []
        self._stack: List[Span] = []
        self._origin = time.perf_counter()

    def for_statement(self) -> "Tracer":
        """A tracer with a fresh open-span stack on this one's clock,
        whose roots land in this one's ``roots`` (a list append, atomic):
        concurrent statements each build their own tree, collected here."""
        trace = Tracer()
        trace.roots = self.roots
        trace._origin = self._origin
        return trace

    # -- recording -----------------------------------------------------------

    def begin(self, name: str, **attrs: object) -> Span:
        """Open a span as a child of the innermost open span."""
        span = Span(name, time.perf_counter() - self._origin)
        if attrs:
            span.attrs.update(attrs)
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        """Close ``span`` (and any children left open by an exception)."""
        now = time.perf_counter() - self._origin
        while self._stack:
            top = self._stack.pop()
            top.end_s = now
            if top is span:
                return
        raise ValueError(f"span {span.name!r} is not open")

    def span(self, name: str, **attrs: object) -> _SpanContext:
        """``with tracer.span("scan") as s: ...`` convenience."""
        return _SpanContext(self, self.begin(name, **attrs))

    def now(self) -> float:
        """Seconds since the tracer's origin.

        Safe to call from scan worker threads: it reads the shared
        monotonic clock and touches no tracer state.  Workers record
        ``now()`` pairs and hand them to the coordinator, which attaches
        the spans via :meth:`emit` — the span tree itself is only ever
        mutated by the coordinating thread.
        """
        return time.perf_counter() - self._origin

    def emit(self, name: str, start_s: float, end_s: float, attrs: Dict[str, object]) -> Span:
        """Attach an already-closed span under the innermost open span.

        This is how the parallel scan coordinator reports per-slice
        spans: workers measure their own ``now()`` windows, and the
        coordinator emits them *in slice order* at the barrier, so the
        trace tree is deterministic even though completion order is not.
        Unlike :meth:`begin`, the span never enters the open-span stack.
        """
        span = Span(name, start_s)
        span.end_s = end_s
        span.attrs.update(attrs)
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        return span

    @property
    def last_root(self) -> Optional[Span]:
        return self.roots[-1] if self.roots else None

    def clear(self) -> None:
        # In place: per-statement tracers share the list.
        del self.roots[:]
        self._stack = []

    # -- export --------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {"spans": [root.to_dict() for root in self.roots]}

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=str)

    def to_chrome_trace(self) -> Dict[str, object]:
        """The ``trace_event`` format chrome://tracing / Perfetto read.

        Every span becomes a complete ("ph": "X") event with microsecond
        timestamps relative to the tracer's origin; attributes ride in
        ``args``.
        """
        events: List[Dict[str, object]] = []
        for root in self.roots:
            for span in root.walk():
                events.append(
                    {
                        "name": span.name,
                        "ph": "X",
                        "ts": span.start_s * 1e6,
                        "dur": span.duration_s * 1e6,
                        "pid": 0,
                        "tid": 0,
                        "args": {k: str(v) for k, v in span.attrs.items()},
                    }
                )
        return {"traceEvents": events, "displayTimeUnit": "ms"}


_UNTRACED: ContextManager[None] = nullcontext()


def optional_span(
    trace: Optional[Tracer], name: str, **attrs: object
) -> ContextManager[Optional[Span]]:
    """``with optional_span(trace, "plan") as span:`` — ``trace.span``,
    or a no-op yielding None when the statement is untraced."""
    return _UNTRACED if trace is None else trace.span(name, **attrs)
