"""Per-session block lifecycle summaries.

Every media block a service loop touches moves through a fixed lifecycle
(``enqueued → read-start → read-done → consumed | skipped``).  Once a run
is over, the service recorder tallies each stream's sampled blocks from
the loop's columns into a :class:`SessionTimeline`: stage counts and
``(block index, read-done time)`` arrivals, on the simulation clock.  From
those it derives the per-session telemetry the admission analysis needs
to defend itself: inter-arrival jitter, consumption counts, and the
conservation law ``consumed + skipped == enqueued`` that proves no block
was silently lost between admission and the display device.  Per-block
timestamps live in the trace's ``service.block`` spans.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import check_count

__all__ = ["BlockStage", "SessionTimeline"]


class BlockStage(enum.Enum):
    """Lifecycle stages of one media block, in order."""

    ENQUEUED = "enqueued"
    READ_START = "read-start"
    READ_DONE = "read-done"
    CONSUMED = "consumed"
    SKIPPED = "skipped"


class SessionTimeline:
    """Per-session stage counts and sampled block arrivals.

    Parameters
    ----------
    enabled:
        When False, :meth:`add` is a no-op (the null-observer pattern;
        see :mod:`repro.obs.registry`).
    keep_first / every_kth:
        Per-block sampling for large scenarios, which the recorder's walk
        follows: blocks with index below ``keep_first`` are tallied, then
        every ``every_kth``-th block.  The gate is purely index-based, so
        a sampled block counts in *all* of its lifecycle stages and the
        conservation law still holds on the sample.  Both None (the
        default) tallies every block.
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
        if keep_first is not None:
            check_count("keep_first", keep_first, 0)
        if every_kth is not None:
            check_count("every_kth", every_kth)
        if summary_sessions is not None:
            check_count("summary_sessions", summary_sessions)
        self.enabled = enabled
        self.keep_first = keep_first
        self.every_kth = every_kth
        self.summary_sessions = summary_sessions
        self._stages: Dict[str, Dict[str, int]] = {}
        self._arrivals: Dict[str, List[Tuple[int, float]]] = {}

    def add(
        self,
        session_id: str,
        stages: Mapping[str, int],
        arrivals: Iterable[Tuple[int, float]],
    ) -> None:
        """Tally one run of *session_id*: blocks per stage (keys are
        :class:`BlockStage` values) and its ``(block index, read-done
        time)`` arrivals.  A session with no block in any stage stays
        unlisted; a no-op when disabled."""
        if not self.enabled or not any(stages.values()):
            return
        counts = self._stages.setdefault(session_id, {})
        for key, count in stages.items():
            if count:
                counts[key] = counts.get(key, 0) + count
        self._arrivals.setdefault(session_id, []).extend(arrivals)

    # -- queries -----------------------------------------------------------------

    def sessions(self) -> List[str]:
        """All session IDs tallied, sorted."""
        return sorted(self._stages)

    def stage_counts(self, session_id: str) -> Dict[str, int]:
        """Blocks per stage for one session (keys are stage values)."""
        return dict(self._stages.get(session_id, {}))

    def read_done_times(self, session_id: str) -> List[float]:
        """Block arrival times for one session, in block order."""
        arrivals = sorted(self._arrivals.get(session_id, ()))
        return [time for _index, time in arrivals]

    def interarrival_jitter(self, session_id: str) -> float:
        """Peak-to-peak spread of successive block arrival gaps, seconds.

        The §3.3.2 anti-jitter buffering exists to absorb exactly this
        spread; 0.0 for sessions with fewer than three arrivals.
        """
        times = self.read_done_times(session_id)
        if len(times) < 3:
            return 0.0
        gaps = [b - a for a, b in zip(times, times[1:])]
        return max(gaps) - min(gaps)

    def conservation_holds(self, session_id: str) -> bool:
        """True iff ``consumed + skipped == enqueued`` for the session."""
        counts = self._stages.get(session_id, {})
        terminal = counts.get("consumed", 0) + counts.get("skipped", 0)
        return terminal == counts.get("enqueued", 0)

    # -- serialization -----------------------------------------------------------

    def summary_dict(self) -> Dict[str, Dict]:
        """Per-session telemetry for snapshot embedding (deterministic).

        With ``summary_sessions`` set, only the first N session ids (in
        sorted order) are listed individually; the tail collapses into a
        single ``"~aggregate"`` entry with summed stage counts, so hot
        scenarios with dozens of sessions produce goldens of bounded
        size.
        """
        entries = {
            session_id: {
                "stages": self.stage_counts(session_id),
                "interarrival_jitter_s": self.interarrival_jitter(session_id),
                "conserved": self.conservation_holds(session_id),
            }
            for session_id in self.sessions()
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
