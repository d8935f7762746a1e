"""The rope editing operations of §4.1: INSERT, REPLACE, SUBSTRING,
CONCATE, DELETE.

All operations are **copy-free**: they manipulate pointers to intervals of
immutable strands, returning a new segment list (the caller wraps it in a
new or updated rope).  "Many different ropes may share intervals of the
same media strand."

Single-medium variants (e.g. ``REPLACE[media: video]``) split the affected
time range and swap only that medium's track references, preserving the
other medium — this is how the paper's Rope4/Rope5 example merges
separately recorded audio and video: "The synchronization information for
the resulting rope is generated by creating a correspondence between the
blocks of the two strands."
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import IntervalError
from repro.rope.intervals import (
    Segment,
    delete_range,
    slice_segments,
    splice_segments,
    total_duration,
)
from repro.rope.structures import Media

__all__ = [
    "substring",
    "insert",
    "replace",
    "concate",
    "delete",
    "strip_medium",
    "project_medium",
]

_EPSILON = 1e-9


def project_medium(
    segments: Sequence[Segment], media: Media
) -> List[Segment]:
    """Restrict segments to the selected media (SUBSTRING's media filter).

    Segments left with no track under the selection are dropped.
    """
    if media is Media.AUDIO_VISUAL:
        return list(segments)
    result: List[Segment] = []
    for segment in segments:
        video = segment.video if media.includes_video else None
        audio = segment.audio if media.includes_audio else None
        if video is None and audio is None:
            continue
        result.append(segment.with_tracks(video, audio))
    if not result:
        raise IntervalError(
            f"projection onto {media.value} leaves no content"
        )
    return result


def strip_medium(
    segments: Sequence[Segment], media: Media
) -> List[Segment]:
    """Remove the selected media from segments (single-medium DELETE):
    the projection onto the other medium.

    Segments whose only track was removed are dropped — their playback
    time disappears with them, matching interval semantics.
    """
    if media is Media.AUDIO_VISUAL:
        raise IntervalError(
            "stripping both media would empty the rope; use delete()"
        )
    kept = Media.AUDIO if media.includes_video else Media.VIDEO
    return project_medium(segments, kept)


def substring(
    segments: Sequence[Segment],
    media: Media,
    start: float,
    length: float,
) -> List[Segment]:
    """SUBSTRING[baseRope, media, interval]: extract a time range."""
    selected = slice_segments(segments, start, length)
    return project_medium(selected, media)


def insert(
    base: Sequence[Segment],
    position: float,
    media: Media,
    with_segments: Sequence[Segment],
    with_start: float,
    with_length: float,
) -> List[Segment]:
    """INSERT[baseRope, position, media, withRope, withInterval] (Fig. 9).

    The selected interval of *with_segments* (restricted to *media*) is
    inserted at *position* of the base; the base segment containing the
    position is split in two, exactly as Fig. 9 shows Rope1 splitting
    around the inserted Rope2 interval.
    """
    insertion = substring(with_segments, media, with_start, with_length)
    return splice_segments(base, position, insertion)


def _overwrite(
    base: Sequence[Segment], start: float, length: float,
    content: List[Segment],
) -> List[Segment]:
    """*base* with ``[start, start+length)`` replaced by *content*."""
    if start <= _EPSILON and (
        start + length >= total_duration(base) - _EPSILON
    ):
        return content
    remainder = delete_range(base, start, length)
    return splice_segments(remainder, start, content)


def delete(
    base: Sequence[Segment],
    media: Media,
    start: float,
    length: float,
) -> List[Segment]:
    """DELETE[baseRope, media, interval].

    With ``media=AUDIO_VISUAL`` the time range disappears (the rope
    shortens).  With a single medium, that medium is removed over the
    range while the other keeps playing — the range is split out and
    stripped in place.
    """
    if media is Media.AUDIO_VISUAL:
        return delete_range(base, start, length)
    affected = slice_segments(base, start, length)
    return _overwrite(base, start, length, strip_medium(affected, media))


def replace(
    base: Sequence[Segment],
    media: Media,
    base_start: float,
    base_length: float,
    with_segments: Sequence[Segment],
    with_start: float,
    with_length: float,
) -> List[Segment]:
    """REPLACE[baseRope, media, baseInterval, withRope, withInterval].

    With ``media=AUDIO_VISUAL`` the base interval is deleted and the
    replacement inserted in its place.

    With a single medium, only that medium's tracks change inside the
    base interval: the base interval is cut out, its *other* medium is
    retained, and the selected medium of the replacement is merged in
    segment by segment — generating fresh block-level correspondence
    between previously unrelated strands (the Rope4/Rope5 example).
    """
    insertion = slice_segments(with_segments, with_start, with_length)
    if media is not Media.AUDIO_VISUAL:
        replacement = project_medium(insertion, media)
        affected = slice_segments(base, base_start, base_length)
        insertion = _merge_tracks(affected, replacement, media)
    return _overwrite(base, base_start, base_length, insertion)


def _merge_tracks(
    affected: Sequence[Segment],
    replacement: Sequence[Segment],
    media: Media,
) -> List[Segment]:
    """Overlay *replacement*'s selected medium onto *affected*'s timeline.

    Both lists cover about the same duration (off the frame grid they
    round to different unit counts); the result is cut at the union of
    both lists' boundaries inside *affected*, each piece taking the kept
    medium from *affected* and the selected medium from *replacement*.
    The replacement's surplus is cut off, and a shortfall holds its
    last unit.
    """
    duration = total_duration(affected)
    replacement_duration = total_duration(replacement)
    if abs(duration - replacement_duration) > max(
        0.5, 0.01 * duration
    ):
        raise IntervalError(
            f"REPLACE intervals differ too much: base {duration:.3f} s vs "
            f"replacement {replacement_duration:.3f} s"
        )
    boundaries = sorted({
        min(time, duration)
        for time in _boundaries(affected) + _boundaries(replacement)
    })
    last = replacement_duration - 2 * _EPSILON
    merged: List[Segment] = []
    for begin, end in zip(boundaries, boundaries[1:]):
        if end - begin <= _EPSILON:
            continue
        kept = slice_segments(affected, begin, end - begin)[0]
        incoming_start = min(begin, last)
        incoming = slice_segments(
            replacement, incoming_start,
            max(min(end, replacement_duration) - incoming_start, 2 * _EPSILON),
        )[0]
        if media.includes_video:
            merged.append(kept.with_tracks(incoming.video, kept.audio))
        else:
            merged.append(kept.with_tracks(kept.video, incoming.audio))
    if not merged:
        raise IntervalError("REPLACE produced no content")
    return merged


def _boundaries(segments: Sequence[Segment]) -> List[float]:
    times = [0.0]
    elapsed = 0.0
    for segment in segments:
        elapsed += segment.duration
        times.append(elapsed)
    return times


def concate(
    first: Sequence[Segment], second: Sequence[Segment]
) -> List[Segment]:
    """CONCATE[mmRopeID1, mmRopeID2]: append second's content to first's.

    Synchronization information travels with the segments (it "is copied
    from a rope to another when they share strands"), so concatenation is
    pointer manipulation only — Fig. 10's example.
    """
    return list(first) + list(second)
