"""An editing-session backend: the Fig. 12 window editor, sans windows.

"The first application we implemented that uses the file system is a
window-based editor to manipulate multimedia ropes."

:class:`EditingSession` gives ropes human-friendly names, applies the §4.1
operations by name, keeps an operation log and an undo stack (undo is
cheap precisely because editing is pointer manipulation — each log entry
snapshots only segment lists), and renders the status lines the Fig. 12
editor displays (rope length, play status, percentage played).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ParameterError, UnknownRopeError
from repro.rope.server import MultimediaRopeServer, RequestState
from repro.rope.structures import Media, MultimediaRope

__all__ = ["LogEntry", "EditingSession"]


@dataclass(frozen=True)
class LogEntry:
    """One applied operation, with enough state to undo it."""

    operation: str
    rope_name: str
    #: (rope_id, segments) snapshots taken *before* the operation, for undo.
    snapshots: Tuple[Tuple[str, tuple], ...]


class EditingSession:
    """Named-rope editing on top of a rope server.

    Parameters
    ----------
    server:
        The MRS this session edits through.
    user:
        The session's user identity, checked against rope access lists.
    """

    def __init__(self, server: MultimediaRopeServer, user: str):
        self.server = server
        self.user = user
        self._names: Dict[str, str] = {}       # name -> rope_id
        self.log: List[LogEntry] = []
        self._undo: List[LogEntry] = []

    # -- naming ---------------------------------------------------------------

    def open(self, name: str, rope_id: str) -> MultimediaRope:
        """Bind *name* to an existing rope."""
        rope = self.server.get_rope(rope_id)
        self._names[name] = rope_id
        return rope

    def rope(self, name: str) -> MultimediaRope:
        """The rope currently bound to *name*."""
        try:
            rope_id = self._names[name]
        except KeyError:
            raise UnknownRopeError(
                f"no rope named {name!r} in this session"
            ) from None
        return self.server.get_rope(rope_id)

    # -- operations -------------------------------------------------------------

    def _snapshot(self, *names: str) -> Tuple[Tuple[str, tuple], ...]:
        shots = []
        for name in names:
            rope = self.rope(name)
            shots.append((rope.rope_id, tuple(rope.segments)))
        return tuple(shots)

    def _record(self, operation: str, rope_name: str, snapshots) -> None:
        entry = LogEntry(
            operation=operation, rope_name=rope_name, snapshots=snapshots
        )
        self.log.append(entry)
        self._undo.append(entry)

    def insert(
        self,
        base: str,
        position: float,
        with_name: str,
        with_start: float,
        with_length: float,
        media: Media = Media.AUDIO_VISUAL,
    ) -> MultimediaRope:
        """INSERT an interval of *with_name* into *base* at *position*."""
        snapshots = self._snapshot(base)
        result = self.server.insert(
            self.user, self.rope(base).rope_id, position, media,
            self.rope(with_name).rope_id, with_start, with_length,
        )
        self._record("INSERT", base, snapshots)
        return result

    def replace(
        self,
        base: str,
        media: Media,
        base_start: float,
        base_length: float,
        with_name: str,
        with_start: float,
        with_length: float,
    ) -> MultimediaRope:
        """REPLACE an interval of *base* with an interval of *with_name*."""
        snapshots = self._snapshot(base)
        result = self.server.replace(
            self.user, self.rope(base).rope_id, media,
            base_start, base_length,
            self.rope(with_name).rope_id, with_start, with_length,
        )
        self._record("REPLACE", base, snapshots)
        return result

    def substring(
        self,
        base: str,
        new_name: str,
        start: float,
        length: float,
        media: Media = Media.AUDIO_VISUAL,
    ) -> MultimediaRope:
        """SUBSTRING *base* into a fresh rope bound to *new_name*."""
        if new_name in self._names:
            raise ParameterError(f"name {new_name!r} already bound")
        result = self.server.substring(
            self.user, self.rope(base).rope_id, media, start, length
        )
        self._names[new_name] = result.rope_id
        self._record("SUBSTRING", new_name, ())
        return result

    def concate(self, base: str, other: str) -> MultimediaRope:
        """CONCATE *other* onto the end of *base*."""
        snapshots = self._snapshot(base)
        result = self.server.concate(
            self.user, self.rope(base).rope_id, self.rope(other).rope_id
        )
        self._record("CONCATE", base, snapshots)
        return result

    def delete(
        self,
        base: str,
        start: float,
        length: float,
        media: Media = Media.AUDIO_VISUAL,
    ) -> MultimediaRope:
        """DELETE an interval of *base*."""
        snapshots = self._snapshot(base)
        result = self.server.delete(
            self.user, self.rope(base).rope_id, media, start, length
        )
        self._record("DELETE", base, snapshots)
        return result

    def undo(self) -> Optional[str]:
        """Revert the most recent undoable operation.

        Returns the operation name, or None when nothing is undoable.
        SUBSTRING creates a new rope and is not reverted (the new rope is
        simply left in place), matching editors that treat extraction as
        non-destructive.
        """
        while self._undo:
            entry = self._undo.pop()
            if not entry.snapshots:
                continue
            for rope_id, segments in entry.snapshots:
                rope = self.server.get_rope(rope_id)
                restored = rope.with_segments(segments)
                self.server._install(restored)
            return entry.operation
        return None

    # -- status (the Fig. 12 panel) ------------------------------------------------

    def status(self, name: str, played_seconds: float = 0.0) -> Dict[str, str]:
        """Render the editor's status fields for a named rope."""
        rope = self.rope(name)
        duration = rope.duration
        playing = any(
            request.rope_id == rope.rope_id
            and request.state is RequestState.ACTIVE
            for request in self.server.active_requests()
        )
        percent = 0.0
        if duration > 0:
            percent = min(100.0, 100.0 * played_seconds / duration)
        return {
            "rope": name,
            "length": f"{duration:.2f} sec",
            "play_status": "playing" if playing else "idle",
            "percentage_played": f"{percent:.0f}%",
            "intervals": str(rope.interval_count()),
        }
