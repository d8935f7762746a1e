"""The multimedia rope record (§4, Fig. 8).

"A rope contains the name of its creator, its length, access rights, and
for each of its component media strands, the strand's unique ID (a NULL
ID indicates the absence of that media in the rope), rate of recording,
granularity of storage, and block-level correspondence."

:class:`MultimediaRope` is that record: identity + access lists + the
segment list carrying all per-interval synchronization information.  Rope
objects are lightweight metadata — "synchronization information (which is
typically very small in size) is copied from a rope to another when they
share strands", so editing operations freely copy segment lists between
ropes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Sequence, Set, Tuple

from repro.errors import AccessDenied, IntervalError
from repro.rope.intervals import Segment, total_duration

__all__ = ["Media", "MultimediaRope"]


class Media(enum.Enum):
    """Selector for which media an operation applies to (§4.1)."""

    VIDEO = "video"
    AUDIO = "audio"
    AUDIO_VISUAL = "audio_visual"

    @property
    def includes_video(self) -> bool:
        """True when the selector covers the video component."""
        return self in (Media.VIDEO, Media.AUDIO_VISUAL)

    @property
    def includes_audio(self) -> bool:
        """True when the selector covers the audio component."""
        return self in (Media.AUDIO, Media.AUDIO_VISUAL)


@dataclass(frozen=True)
class MultimediaRope:
    """One rope: identity, access rights, and the synchronized segments.

    Attributes
    ----------
    rope_id:
        Unique identifier (Fig. 8's MultimediaRopeID).
    creator:
        Identification of the creator.
    play_access / edit_access:
        User (or group) identifications permitted to PLAY / edit.  The
        creator is always permitted.  An empty list means creator-only.
    segments:
        The ordered strand-interval list with synchronization info.
    """

    rope_id: str
    creator: str
    segments: Tuple[Segment, ...]
    play_access: Tuple[str, ...] = ()
    edit_access: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.segments:
            raise IntervalError(f"rope {self.rope_id!r} has no content")

    @property
    def duration(self) -> float:
        """Fig. 8's Length: playback length of the rope in seconds."""
        return total_duration(self.segments)

    def referenced_strands(self) -> Set[str]:
        """All strand IDs this rope points into (for interests/GC)."""
        return {
            strand_id
            for segment in self.segments for strand_id in segment.strand_ids()
        }

    def check_play(self, user: str) -> None:
        """Raise :class:`AccessDenied` unless *user* may PLAY this rope."""
        if user != self.creator and user not in self.play_access and (
            user not in self.edit_access
        ):
            raise AccessDenied(
                f"user {user!r} may not play rope {self.rope_id!r}"
            )

    def check_edit(self, user: str) -> None:
        """Raise :class:`AccessDenied` unless *user* may edit this rope."""
        if user != self.creator and user not in self.edit_access:
            raise AccessDenied(
                f"user {user!r} may not edit rope {self.rope_id!r}"
            )

    def with_segments(
        self, segments: Sequence[Segment]
    ) -> "MultimediaRope":
        """Copy of this rope with new content (edits produce these)."""
        return replace(self, segments=tuple(segments))

    def interval_count(self) -> int:
        """Number of strand intervals (grows with editing, Fig. 9)."""
        return len(self.segments)
