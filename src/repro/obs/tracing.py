"""Causal span tracing over simulated time.

A request that crosses the whole stack — MediaServer queue, batch
admission, the MRS↔MSM :class:`~repro.service.rpc.RpcChannel`, the
round-robin service loop, and the (cached) drive — leaves one *trace*: a
tree of :class:`Span` records, each covering a simulated-time interval
and pointing at its parent.  The tracer answers the question the
per-layer metrics cannot: *why* was this session rejected, *where* did
this block's deadline slack go.

Everything is deterministic.  Timestamps are simulation clock readings
(never wall clock); trace ids derive from ``crc32(seed / session key)``
and span ids append a global creation sequence number, so the same seed
produces byte-identical traces and exports.

Context crosses component boundaries *explicitly*: a span's
:meth:`Span.wire` form is a plain dict (``trace_id`` / ``span_id`` /
``time`` / ``session``) that RPC layers marshal like any other argument;
:meth:`SpanTracer.start_span` accepts either a live :class:`Span` or
such a wire dict as the parent.  For layers that cannot thread a
parameter (the playback session building stream plans from request ids),
:meth:`SpanTracer.bind` registers a context under a key —
``context_for`` returns it downstream.

Overflow mirrors :class:`repro.sim.trace.Tracer`: past ``limit`` spans,
new spans are dropped (counted in :attr:`SpanTracer.dropped_count`) so
existing parent chains stay intact, or :class:`SimulationError` is
raised in ``strict`` mode.  ``block_keep_first`` / ``block_every_kth``
are the per-block sampling knobs the service recorder consults so tracing
a million-block run stays affordable.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterator, List, Optional, Union

from repro.errors import ParameterError, SimulationError

__all__ = ["Span", "SpanTracer"]

#: Parent references accepted by :meth:`SpanTracer.start_span`.
ParentRef = Union["Span", Dict[str, object], None]


class Span:
    """One timed operation inside a trace.

    ``end`` is None while the span is open; ``status`` is ``"ok"`` until
    :meth:`SpanTracer.end_span` says otherwise.  ``attrs`` is a small
    plain dict of JSON-able values (block index, slot, reject reason).
    """

    __slots__ = (
        "span_id", "trace_id", "parent_id", "name", "session",
        "start", "end", "status", "attrs",
    )

    def __init__(
        self,
        span_id: str,
        trace_id: str,
        parent_id: Optional[str],
        name: str,
        session: Optional[str],
        start: float,
        attrs: Optional[Dict[str, object]] = None,
    ):
        self.span_id = span_id
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.name = name
        self.session = session
        self.start = start
        self.end: Optional[float] = None
        self.status = "ok"
        self.attrs = attrs if attrs is not None else {}

    @property
    def duration(self) -> float:
        """Simulated seconds covered (0.0 while the span is open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def wire(self, time: float) -> Dict[str, object]:
        """The marshalled context a component sends across a boundary."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "time": float(time),
            "session": self.session,
        }

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready record (deterministic field set)."""
        return {
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "session": self.session,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"start={self.start:.6f}, end={self.end}, "
            f"status={self.status!r})"
        )


class SpanTracer:
    """Deterministic span store with explicit context propagation.

    Parameters
    ----------
    enabled:
        When False, :meth:`start_span` returns None at near-zero cost
        (the null-observer pattern every layer guards with).
    seed:
        Folded into every trace id, so distinct scenario seeds produce
        distinct — but reproducible — id spaces.
    limit:
        Maximum retained spans.  Beyond it new spans are *dropped* (the
        newest, so recorded parent chains never dangle) and counted.
    strict:
        When True, exceeding *limit* raises :class:`SimulationError`
        instead of dropping.
    block_keep_first / block_every_kth:
        Per-block sampling the service recorder consults (see
        :meth:`samples_block`): block indexes below ``block_keep_first``
        are always traced, then every ``block_every_kth``-th.  Both None
        (the default) traces every block.
    """

    def __init__(
        self,
        enabled: bool = True,
        seed: int = 0,
        limit: int = 100_000,
        strict: bool = False,
        block_keep_first: Optional[int] = None,
        block_every_kth: Optional[int] = None,
    ):
        if limit < 1:
            raise ParameterError(f"limit must be >= 1, got {limit}")
        if block_keep_first is not None and block_keep_first < 0:
            raise ParameterError(
                f"block_keep_first must be >= 0, got {block_keep_first}"
            )
        if block_every_kth is not None and block_every_kth < 1:
            raise ParameterError(
                f"block_every_kth must be >= 1, got {block_every_kth}"
            )
        self.enabled = enabled
        self.seed = seed
        self.limit = limit
        self.strict = strict
        self.block_keep_first = block_keep_first
        self.block_every_kth = block_every_kth
        self.dropped = 0
        self._spans: List[Span] = []
        self._by_id: Dict[str, Span] = {}
        self._sequence = 0
        self._trace_ids: Dict[str, str] = {}
        self._trace_last_end: Dict[str, float] = {}
        self._bindings: Dict[str, Span] = {}

    # -- identity ---------------------------------------------------------------

    @property
    def dropped_count(self) -> int:
        """Spans lost to the limit (0 means the trace is complete)."""
        return self.dropped

    def trace_id_for(self, key: str) -> str:
        """The deterministic trace id for a session/root key."""
        cached = self._trace_ids.get(key)
        if cached is None:
            digest = zlib.crc32(f"{self.seed}/{key}".encode("utf-8"))
            cached = self._trace_ids[key] = format(digest, "08x")
        return cached

    # -- recording --------------------------------------------------------------

    def start_span(
        self,
        name: str,
        time: float,
        parent: ParentRef = None,
        session: Optional[str] = None,
        attrs: Optional[Dict[str, object]] = None,
    ) -> Optional[Span]:
        """Open a span; returns None when disabled or dropped.

        *parent* is a live :class:`Span`, a :meth:`Span.wire` dict from
        across a boundary, or None (a new root).  Roots derive their
        trace id from *session* (falling back to *name* for
        control-plane spans with no session).
        """
        if not self.enabled:
            return None
        if len(self._spans) >= self.limit:
            if self.strict:
                raise SimulationError(
                    f"strict span tracer overflowed its {self.limit}-span "
                    f"limit at [{time:.6f}] {name}"
                )
            self.dropped += 1
            return None
        if parent is None:
            parent_id = None
            trace_id = self.trace_id_for(session if session else name)
        elif isinstance(parent, Span):
            parent_id = parent.span_id
            trace_id = parent.trace_id
            if session is None:
                session = parent.session
        else:
            parent_id = str(parent["span_id"])
            trace_id = str(parent["trace_id"])
            if session is None:
                raw = parent.get("session")
                session = str(raw) if raw is not None else None
        self._sequence += 1
        span = Span(
            span_id=f"{trace_id}:{self._sequence:06d}",
            trace_id=trace_id,
            parent_id=parent_id,
            name=name,
            session=session,
            start=time,
            attrs=attrs,
        )
        self._spans.append(span)
        self._by_id[span.span_id] = span
        return span

    def end_span(
        self,
        span: Optional[Span],
        time: float,
        status: str = "ok",
    ) -> None:
        """Close *span* (tolerates None and already-closed spans)."""
        if span is None or span.end is not None:
            return
        span.end = time
        span.status = status
        last = self._trace_last_end.get(span.trace_id)
        if last is None or time > last:
            self._trace_last_end[span.trace_id] = time

    def latest_end(self, trace_id: str, default: float = 0.0) -> float:
        """The latest close time recorded for *trace_id*."""
        return self._trace_last_end.get(trace_id, default)

    # -- context registry --------------------------------------------------------

    def bind(self, key: str, span: Span) -> None:
        """Register *span* as the ambient context for *key*."""
        self._bindings[key] = span

    def unbind(self, key: str) -> None:
        """Drop the binding for *key* (no-op when absent)."""
        self._bindings.pop(key, None)

    def context_for(self, key: str) -> Optional[Span]:
        """The span bound to *key*, or None."""
        return self._bindings.get(key)

    # -- sampling ---------------------------------------------------------------

    def samples_block(self, block_index: int) -> bool:
        """Whether per-block spans are recorded for *block_index* (the
        service recorder asks before opening a ``service.block`` span)."""
        keep = self.block_keep_first
        if keep is None or block_index < keep:
            return True
        every = self.block_every_kth
        return every is not None and block_index % every == 0

    # -- queries ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self._spans)

    def span(self, span_id: str) -> Optional[Span]:
        """Look up one span by id."""
        return self._by_id.get(span_id)

    def spans(
        self,
        name: Optional[str] = None,
        trace_id: Optional[str] = None,
        session: Optional[str] = None,
    ) -> List[Span]:
        """Spans matching the filters, in creation order."""
        return [
            span
            for span in self._spans
            if (name is None or span.name == name)
            and (trace_id is None or span.trace_id == trace_id)
            and (session is None or span.session == session)
        ]

    def children_of(self, span: Span) -> List[Span]:
        """Direct children of *span*, in creation order."""
        return [s for s in self._spans if s.parent_id == span.span_id]

    def roots_of(self, trace_id: str) -> List[Span]:
        """Parentless spans of one trace."""
        return [
            s for s in self._spans
            if s.trace_id == trace_id and s.parent_id is None
        ]

    def trace_is_connected(self, trace_id: str) -> bool:
        """True when the trace is a single tree: exactly one root, and
        every other span's parent present in the store."""
        members = [s for s in self._spans if s.trace_id == trace_id]
        if not members:
            return False
        ids = {s.span_id for s in members}
        roots = 0
        for span in members:
            if span.parent_id is None:
                roots += 1
            elif span.parent_id not in ids:
                return False
        return roots == 1

    # -- serialization -----------------------------------------------------------

    def summary_dict(self) -> Dict[str, object]:
        """Compact deterministic rollup for snapshot embedding.

        Kept intentionally small (counts, not span listings) so golden
        snapshots stay readable; the full span store is exported through
        :meth:`to_chrome_trace` instead.
        """
        by_name: Dict[str, int] = {}
        open_spans = 0
        orphans = 0
        for span in self._spans:
            by_name[span.name] = by_name.get(span.name, 0) + 1
            if span.end is None:
                open_spans += 1
            if (
                span.parent_id is not None
                and span.parent_id not in self._by_id
            ):
                orphans += 1
        return {
            "count": len(self._spans),
            "open": open_spans,
            "orphans": orphans,
            "dropped": self.dropped,
            "strict": self.strict,
            "traces": len({s.trace_id for s in self._spans}),
            "by_name": dict(sorted(by_name.items())),
        }

    def to_chrome_trace(self) -> Dict[str, object]:
        """The span store as a Chrome trace-event document.

        Loadable in Perfetto (https://ui.perfetto.dev) or
        ``chrome://tracing``: one thread lane per trace (named after its
        session when it has one), ``"X"`` complete events with
        microsecond timestamps, parents rendered by interval nesting.
        Open spans export with zero duration at their start time.
        """
        lane_of: Dict[str, int] = {}
        lane_name: Dict[int, str] = {}
        events: List[Dict[str, object]] = []
        for span in self._spans:
            lane = lane_of.get(span.trace_id)
            if lane is None:
                lane = lane_of[span.trace_id] = len(lane_of) + 1
                lane_name[lane] = (
                    span.session if span.session is not None
                    else span.name
                )
        for lane, name in sorted(lane_name.items()):
            events.append({
                "ph": "M",
                "pid": 1,
                "tid": lane,
                "name": "thread_name",
                "args": {"name": name},
            })
        for span in self._spans:
            end = span.end if span.end is not None else span.start
            args: Dict[str, object] = {
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "trace_id": span.trace_id,
                "status": span.status,
            }
            for key in sorted(span.attrs):
                args[key] = span.attrs[key]
            events.append({
                "ph": "X",
                "pid": 1,
                "tid": lane_of[span.trace_id],
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ts": round(span.start * 1e6, 3),
                "dur": round((end - span.start) * 1e6, 3),
                "args": args,
            })
        return {
            "displayTimeUnit": "ms",
            "traceEvents": events,
            "otherData": {
                "clock": "simulated",
                "seed": self.seed,
                "spans": len(self._spans),
                "dropped": self.dropped,
            },
        }
