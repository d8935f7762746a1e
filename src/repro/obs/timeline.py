"""Per-session block lifecycle timelines.

Every media block a service loop touches moves through a fixed lifecycle
(``enqueued → read-start → read-done → consumed | skipped``), each stage
stamped with **simulated** time.  A :class:`SessionTimeline` records
those transitions per ``(session, block)`` pair and derives the
per-session telemetry the admission analysis needs to defend itself:
inter-arrival jitter, consumption counts, and the conservation law
``consumed + skipped == enqueued`` that proves no block was silently
lost between admission and the display device.

Timestamps come from the simulation clock, so a timeline is exactly
reproducible under a fixed seed; :meth:`SessionTimeline.validate`
machine-checks the well-ordering invariants the property tests rely on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import ParameterError, SimulationError

__all__ = ["BlockStage", "TimelineEvent", "SessionTimeline"]


class BlockStage(enum.Enum):
    """Lifecycle stages of one media block, in order."""

    ENQUEUED = "enqueued"
    READ_START = "read-start"
    READ_DONE = "read-done"
    CONSUMED = "consumed"
    SKIPPED = "skipped"


#: Lifecycle position of each stage (CONSUMED and SKIPPED are the two
#: mutually exclusive terminals).
_STAGE_ORDER = {
    BlockStage.ENQUEUED: 0,
    BlockStage.READ_START: 1,
    BlockStage.READ_DONE: 2,
    BlockStage.CONSUMED: 3,
    BlockStage.SKIPPED: 3,
}

_TERMINALS = (BlockStage.CONSUMED, BlockStage.SKIPPED)


@dataclass
class TimelineEvent:
    """One lifecycle transition of one block.

    Slotted and not frozen: one is built per recorded stage, so its
    construction (a frozen dataclass pays an ``object.__setattr__`` per
    field, five times the cost) and its per-instance ``__dict__`` (one
    more allocation for the collector to walk) are observed-path
    overhead.
    """

    __slots__ = ("time", "session_id", "block_index", "stage")

    time: float
    session_id: str
    block_index: int
    stage: BlockStage

    def __str__(self) -> str:
        return (
            f"[{self.time:12.6f}] {self.session_id:<10} "
            f"block {self.block_index:<6d} {self.stage.value}"
        )


def _gap_spread(times: List[float]) -> float:
    """Peak-to-peak spread of the gaps between successive *times*."""
    if len(times) < 3:
        return 0.0
    gaps = [b - a for a, b in zip(times, times[1:])]
    return max(gaps) - min(gaps)


def _conserved(counts: Dict[str, int]) -> bool:
    return counts.get("consumed", 0) + counts.get("skipped", 0) == (
        counts.get("enqueued", 0)
    )


class SessionTimeline:
    """Records block lifecycle events for any number of sessions.

    Parameters
    ----------
    enabled:
        When False, :meth:`record` is a no-op (the null-observer
        pattern; see :mod:`repro.obs.registry`).
    keep_first / every_kth:
        Per-block sampling for large scenarios: blocks with index below
        ``keep_first`` always record, then every ``every_kth``-th block.
        The gate is purely index-based, so a sampled block keeps *all*
        of its lifecycle stages and the conservation law still holds on
        the sample.  Both None (the default) records every block.
    summary_sessions:
        Cap on fully-listed sessions in :meth:`summary_dict`; sessions
        beyond the cap collapse into one ``"~aggregate"`` entry (``~``
        sorts after session ids in sorted-key JSON).  None lists all.
    """

    def __init__(
        self,
        enabled: bool = True,
        keep_first: Optional[int] = None,
        every_kth: Optional[int] = None,
        summary_sessions: Optional[int] = None,
    ):
        if keep_first is not None and keep_first < 0:
            raise ParameterError(
                f"keep_first must be >= 0, got {keep_first}"
            )
        if every_kth is not None and every_kth < 1:
            raise ParameterError(
                f"every_kth must be >= 1, got {every_kth}"
            )
        if summary_sessions is not None and summary_sessions < 1:
            raise ParameterError(
                f"summary_sessions must be >= 1, got {summary_sessions}"
            )
        self.enabled = enabled
        self.keep_first = keep_first
        self.every_kth = every_kth
        self.summary_sessions = summary_sessions
        self._events: List[TimelineEvent] = []

    # -- recording ---------------------------------------------------------------

    def record(
        self,
        time: float,
        session_id: str,
        block_index: int,
        stage: BlockStage,
    ) -> None:
        """Append one lifecycle event (no-op when disabled/sampled out)."""
        if not self.enabled:
            return
        keep = self.keep_first
        if keep is not None and block_index >= keep:
            every = self.every_kth
            if every is None or block_index % every:
                return
        self._events.append(
            TimelineEvent(time, session_id, block_index, stage)
        )

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TimelineEvent]:
        return iter(self._events)

    # -- queries -----------------------------------------------------------------

    def sessions(self) -> List[str]:
        """All session IDs seen, sorted."""
        return sorted({event.session_id for event in self._events})

    def events(
        self,
        session_id: Optional[str] = None,
        block_index: Optional[int] = None,
        stage: Optional[BlockStage] = None,
    ) -> List[TimelineEvent]:
        """Events matching the given filters, in recording order."""
        return [
            event
            for event in self._events
            if (session_id is None or event.session_id == session_id)
            and (block_index is None or event.block_index == block_index)
            and (stage is None or event.stage == stage)
        ]

    def stage_counts(self, session_id: str) -> Dict[str, int]:
        """Events per stage for one session (keys are stage values)."""
        counts: Dict[str, int] = {}
        for event in self._events:
            if event.session_id != session_id:
                continue
            key = event.stage.value
            counts[key] = counts.get(key, 0) + 1
        return counts

    def read_done_times(self, session_id: str) -> List[float]:
        """Block arrival times for one session, in block order."""
        arrivals = [
            (event.block_index, event.time)
            for event in self._events
            if event.session_id == session_id
            and event.stage is BlockStage.READ_DONE
        ]
        return [time for _index, time in sorted(arrivals)]

    def interarrival_jitter(self, session_id: str) -> float:
        """Peak-to-peak spread of successive block arrival gaps, seconds.

        The §3.3.2 anti-jitter buffering exists to absorb exactly this
        spread; 0.0 for sessions with fewer than three arrivals.
        """
        return _gap_spread(self.read_done_times(session_id))

    # -- invariants --------------------------------------------------------------

    def validate(self) -> None:
        """Machine-check the lifecycle invariants; raises on violation.

        * per-block event times are monotonically non-decreasing;
        * stages appear in lifecycle order, starting at ``enqueued``;
        * at most one terminal (``consumed`` xor ``skipped``) per block.
        """
        per_block: Dict[Tuple[str, int], List[TimelineEvent]] = {}
        for event in self._events:
            per_block.setdefault(
                (event.session_id, event.block_index), []
            ).append(event)
        for (session_id, block_index), events in per_block.items():
            label = f"{session_id} block {block_index}"
            if events[0].stage is not BlockStage.ENQUEUED:
                raise SimulationError(
                    f"{label}: first event is {events[0].stage.value}, "
                    "not enqueued"
                )
            terminals = 0
            for previous, current in zip(events, events[1:]):
                if current.time < previous.time:
                    raise SimulationError(
                        f"{label}: time reversed "
                        f"({previous.time} -> {current.time})"
                    )
                if (
                    _STAGE_ORDER[current.stage]
                    < _STAGE_ORDER[previous.stage]
                ):
                    raise SimulationError(
                        f"{label}: stage {current.stage.value} after "
                        f"{previous.stage.value}"
                    )
            for event in events:
                if event.stage in _TERMINALS:
                    terminals += 1
            if terminals > 1:
                raise SimulationError(
                    f"{label}: {terminals} terminal events (consumed/"
                    "skipped must be exclusive)"
                )

    def conservation_holds(self, session_id: str) -> bool:
        """True iff ``consumed + skipped == enqueued`` for the session."""
        return _conserved(self.stage_counts(session_id))

    # -- serialization -----------------------------------------------------------

    def summary_dict(self) -> Dict[str, Dict]:
        """Per-session telemetry for snapshot embedding (deterministic).

        With ``summary_sessions`` set, only the first N session ids (in
        sorted order) are listed individually; the tail collapses into a
        single ``"~aggregate"`` entry with summed stage counts, so hot
        scenarios with dozens of sessions produce goldens of bounded
        size.
        """
        # One pass over the events, grouped by session; the per-session
        # queries above (each its own scan) are the reference.
        counts: Dict[str, Dict[str, int]] = {}
        arrivals: Dict[str, List[Tuple[int, float]]] = {}
        for event in self._events:
            stages = counts.get(event.session_id)
            if stages is None:
                stages = counts[event.session_id] = {}
                arrivals[event.session_id] = []
            key = event.stage.value
            stages[key] = stages.get(key, 0) + 1
            if event.stage is BlockStage.READ_DONE:
                arrivals[event.session_id].append(
                    (event.block_index, event.time)
                )
        entries = {
            session_id: {
                "stages": counts[session_id],
                "interarrival_jitter_s": _gap_spread(
                    [time for _index, time in sorted(arrivals[session_id])]
                ),
                "conserved": _conserved(counts[session_id]),
            }
            for session_id in sorted(counts)
        }
        session_ids = list(entries)
        listed = session_ids[:self.summary_sessions]
        summary = {session_id: entries[session_id] for session_id in listed}
        rest = [entries[session_id] for session_id in session_ids[len(listed):]]
        if rest:
            stages: Dict[str, int] = {}
            for entry in rest:
                for key, count in entry["stages"].items():
                    stages[key] = stages.get(key, 0) + count
            summary["~aggregate"] = {
                "sessions": len(rest),
                "stages": stages,
                "interarrival_jitter_s": max(
                    entry["interarrival_jitter_s"] for entry in rest
                ),
                "conserved": all(entry["conserved"] for entry in rest),
            }
        return summary

    def render(self, session_id: Optional[str] = None, last: int = 50) -> str:
        """Human-readable tail of one session's (or all) events."""
        events = self.events(session_id=session_id)
        return "\n".join(str(event) for event in events[-last:])
