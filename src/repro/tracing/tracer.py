"""The span tracer: low overhead on, zero side effects off.

The tracer runs on the *simulation* clock (a ``clock`` callable,
normally ``lambda: sim.now``), so spans are ordered in simulated time
and a recorded trace is deterministic for a fixed campaign seed — no
wall-clock ever enters a span.

Three ways to open a span:

* ``with tracer.span("name", CAT):`` — lexical; pushes onto the current
  stack so spans opened inside become children (parent propagation);
* ``tracer.begin(...)`` / ``tracer.finish(span)`` — non-lexical, for
  intervals that start in one simulator event and end in another (a
  job's ``running`` span spans thousands of dispatches);
* ``@tracer.trace("name", CAT)`` — decorator sugar over ``span``.

``tracer.record(...)`` appends an already-closed span with a *modeled*
duration — how the node cost model reports intervals without
advancing the clock.

Disabled tracers (``enabled=False``) allocate nothing and record
nothing: every entry point returns the shared ``_NULL_SPAN`` and the
context manager is a prebuilt singleton.  Instrumented call sites
additionally guard with ``tracer is not None`` so an untraced campaign
pays only an attribute test.
"""

from __future__ import annotations

import functools
import itertools
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.tracing.span import CAT_JOB, Span

#: Sentinel meaning "parent to the current stack top" (``parent=None``
#: explicitly forces a root span).
_CURRENT = object()

#: The span handed out by disabled tracers.  Shared and inert; writes to
#: its ``args`` land in a dict nobody reads.
_NULL_SPAN = Span(span_id="s0", name="", category="", start=0.0, end=0.0)


class Tracer:
    """Collects spans on a simulated clock.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current simulated time.
        Defaults to a constant 0.0 (standalone model use); a campaign
        binds the simulator with :meth:`bind_clock`.
    enabled:
        ``False`` makes every operation a no-op.
    bus:
        Optional telemetry :class:`~repro.telemetry.bus.EventBus`; every
        finished span is published to the ``trace.span`` topic so the
        online side can reference spans (alerts carry the id of the
        collector pass they fired in).
    """

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        *,
        enabled: bool = True,
        bus: Any = None,
    ) -> None:
        self.clock: Callable[[], float] = clock if clock is not None else (lambda: 0.0)
        self.enabled = enabled
        self.bus = bus
        #: Finished spans in finish order.
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._ids = itertools.count(1)

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Point the tracer at a (new) time source."""
        self.clock = clock

    # ------------------------------------------------------------------
    # Core span lifecycle
    # ------------------------------------------------------------------
    @property
    def current(self) -> Span | None:
        """Innermost open lexical span, or ``None``."""
        return self._stack[-1] if self._stack else None

    def begin(
        self,
        name: str,
        category: str = "span",
        *,
        parent: Span | None | object = _CURRENT,
        start: float | None = None,
        **args: Any,
    ) -> Span:
        """Open a span without entering it lexically.

        The caller keeps the handle and later calls :meth:`finish`.
        ``parent`` defaults to the current lexical span; pass ``None``
        to force a root (one tree per job hangs off such a root).
        """
        if not self.enabled:
            return _NULL_SPAN
        if parent is _CURRENT:
            parent = self.current
        return Span(
            span_id=f"s{next(self._ids)}",
            name=name,
            category=category,
            start=self.clock() if start is None else start,
            parent_id=parent.span_id if parent is not None else None,  # type: ignore[union-attr]
            args=args,
        )

    def finish(self, span: Span, *, end: float | None = None) -> Span:
        """Close an open span; records it and publishes to the bus."""
        if not self.enabled or span is _NULL_SPAN:
            return span
        if span.finished:
            raise ValueError(f"span {span.span_id} ({span.name!r}) already finished")
        t = self.clock() if end is None else end
        if t < span.start:
            raise ValueError(
                f"span {span.span_id} cannot end before it starts ({t} < {span.start})"
            )
        span.end = t
        self.spans.append(span)
        if self.bus is not None:
            from repro.telemetry.bus import TOPIC_SPAN, SpanFinished

            self.bus.publish(TOPIC_SPAN, SpanFinished(time=t, span=span))
        return span

    def record(
        self,
        name: str,
        category: str = "span",
        *,
        duration: float = 0.0,
        start: float | None = None,
        parent: Span | None | object = _CURRENT,
        **args: Any,
    ) -> Span:
        """Append an already-closed span with a modeled duration."""
        if not self.enabled:
            return _NULL_SPAN
        if duration < 0:
            raise ValueError("span duration cannot be negative")
        span = self.begin(name, category, parent=parent, start=start, **args)
        return self.finish(span, end=span.start + duration)

    # ------------------------------------------------------------------
    # Lexical API
    # ------------------------------------------------------------------
    @contextmanager
    def span(
        self,
        name: str,
        category: str = "span",
        *,
        parent: Span | None | object = _CURRENT,
        **args: Any,
    ) -> Iterator[Span]:
        """Context manager: open, push as current, finish on exit.

        The yielded span's ``args`` may be mutated inside the block
        (e.g. attach a result count once it is known).
        """
        if not self.enabled:
            yield _NULL_SPAN
            return
        span = self.begin(name, category, parent=parent, **args)
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            self.finish(span)

    def trace(
        self, name: str | None = None, category: str = "func"
    ) -> Callable[[Callable], Callable]:
        """Decorator form: each call of the function becomes a span."""

        def decorate(fn: Callable) -> Callable:
            label = name if name is not None else fn.__name__

            @functools.wraps(fn)
            def wrapper(*a: Any, **kw: Any):
                if not self.enabled:
                    return fn(*a, **kw)
                with self.span(label, category):
                    return fn(*a, **kw)

            return wrapper

        return decorate

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def job_roots(self) -> list[Span]:
        """The per-job root spans, job-id order."""
        roots = [s for s in self.spans if s.category == CAT_JOB]
        roots.sort(key=lambda s: s.args.get("job_id", 0))
        return roots


#: Shared disabled tracer, for call sites that want a non-None default.
NULL_TRACER = Tracer(enabled=False)
