"""Event tracing for simulations: a timestamped, filterable log.

Traces are how experiments explain themselves: each service round, block
arrival, deadline, and buffer transition can be recorded and later
filtered or rendered.  Tracing is off by default (``enabled=False``
constructs a null tracer with near-zero cost) so benchmark timings are not
distorted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.errors import SimulationError, check_count

__all__ = ["TraceEvent", "Tracer"]


@dataclass(frozen=True)
class TraceEvent:
    """One trace record."""

    time: float
    tag: str
    subject: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.time:12.6f}] {self.tag:<14} {self.subject:<10} {self.detail}"


class Tracer:
    """Collects :class:`TraceEvent` records.

    Parameters
    ----------
    enabled:
        When False, :meth:`emit` is a no-op.
    limit:
        Maximum retained events (at least 1); older events are dropped
        FIFO beyond it (simulations can generate millions).
    strict:
        When True, exceeding *limit* raises :class:`SimulationError`
        instead of silently dropping — for tests that assert their trace
        is complete ("no events dropped") rather than merely recent.
    """

    def __init__(
        self,
        enabled: bool = True,
        limit: int = 100_000,
        strict: bool = False,
    ):
        check_count("limit", limit)
        self.enabled = enabled
        self.limit = limit
        self.strict = strict
        self._events: List[TraceEvent] = []
        self.dropped = 0

    @property
    def dropped_count(self) -> int:
        """Events lost to the FIFO limit (0 means the trace is complete)."""
        return self.dropped

    def emit(self, time: float, tag: str, subject: str, detail: str = "") -> None:
        """Record one event (no-op when disabled).

        Raises
        ------
        SimulationError
            In strict mode, when the event would overflow *limit*.
        """
        if not self.enabled:
            return
        if len(self._events) >= self.limit:
            if self.strict:
                raise SimulationError(
                    f"strict tracer overflowed its {self.limit}-event "
                    f"limit at [{time:.6f}] {tag} {subject}"
                )
            self._events.pop(0)
            self.dropped += 1
        self._events.append(TraceEvent(time, tag, subject, detail))

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def filter(
        self, tag: Optional[str] = None, subject: Optional[str] = None
    ) -> List[TraceEvent]:
        """Events matching the given tag and/or subject."""
        return [
            event
            for event in self._events
            if (tag is None or event.tag == tag)
            and (subject is None or event.subject == subject)
        ]

    def counts_by_tag(self) -> Dict[str, int]:
        """Histogram of event tags."""
        counts: Dict[str, int] = {}
        for event in self._events:
            counts[event.tag] = counts.get(event.tag, 0) + 1
        return counts

    def render(self, last: int = 50) -> str:
        """Human-readable tail of the trace."""
        lines = [str(event) for event in self._events[-last:]]
        if self.dropped:
            lines.insert(0, f"... {self.dropped} earlier events dropped ...")
        return "\n".join(lines)
