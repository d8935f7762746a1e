"""Strand-interval algebra: the substrate of copy-free rope editing (§4).

"an edited rope contains a list of pointers to intervals of strands" — a
rope's media content is a list of :class:`Segment` objects, each holding a
per-medium :class:`MediaTrack` reference (strand ID + unit range) plus the
synchronization information of Fig. 8 (recording rates, granularities,
block-level correspondence).

All editing operations reduce to three pure functions over segment lists —
:func:`slice_segments`, :func:`splice_segments`, and
:func:`delete_range` — none of which touch strand contents.  Edit
positions are given in seconds (matching the paper's interfaces) and are
converted to media units against each track's recording rate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from repro.errors import IntervalError, ParameterError

__all__ = [
    "MediaTrack",
    "Trigger",
    "Segment",
    "total_duration",
    "slice_segments",
    "splice_segments",
    "delete_range",
]

#: Tolerance (seconds) when comparing edit positions against boundaries.
_EPSILON = 1e-9


@dataclass(frozen=True)
class MediaTrack:
    """A reference to an interval of one media strand.

    Attributes
    ----------
    strand_id:
        The referenced strand.
    start_unit:
        First frame/sample of the interval within the strand.
    length_units:
        Interval length in frames/samples.
    rate:
        The strand's recording rate (units/second) — Fig. 8's
        Video/AudioRecordingRate.
    granularity:
        The strand's storage granularity (units/block) — Fig. 8's
        Video/AudioGranularity.
    """

    strand_id: str
    start_unit: int
    length_units: int
    rate: float
    granularity: int

    def __post_init__(self) -> None:
        if self.start_unit < 0:
            raise IntervalError(
                f"start_unit must be >= 0, got {self.start_unit}"
            )
        if self.length_units < 1:
            raise IntervalError(
                f"length_units must be >= 1, got {self.length_units}"
            )
        if self.rate <= 0:
            raise ParameterError(f"rate must be positive, got {self.rate}")
        if self.granularity < 1:
            raise ParameterError(
                f"granularity must be >= 1, got {self.granularity}"
            )

    @property
    def duration(self) -> float:
        """Interval length in seconds."""
        return self.length_units / self.rate

    @property
    def end_unit(self) -> int:
        """One past the last unit of the interval."""
        return self.start_unit + self.length_units

    @property
    def first_block(self) -> int:
        """Strand block number containing the interval's first unit."""
        return self.start_unit // self.granularity

    @property
    def last_block(self) -> int:
        """Strand block number containing the interval's last unit."""
        return (self.end_unit - 1) // self.granularity

    def slice(self, offset_seconds: float, duration_seconds: float) -> "MediaTrack":
        """Sub-interval starting *offset_seconds* in, *duration_seconds* long.

        Unit arithmetic rounds to the nearest unit, clamped to stay a
        valid non-empty sub-interval.
        """
        if offset_seconds < -_EPSILON or duration_seconds <= _EPSILON:
            raise IntervalError(
                f"bad slice: offset {offset_seconds}, duration "
                f"{duration_seconds}"
            )
        offset_units = int(round(offset_seconds * self.rate))
        length = int(round(duration_seconds * self.rate))
        offset_units = min(max(0, offset_units), self.length_units - 1)
        length = max(1, min(length, self.length_units - offset_units))
        return replace(
            self,
            start_unit=self.start_unit + offset_units,
            length_units=length,
        )


@dataclass(frozen=True)
class Trigger:
    """Fig. 8 trigger information: text synchronized with media blocks."""

    video_block: Optional[int]
    audio_block: Optional[int]
    text: str


@dataclass(frozen=True)
class Segment:
    """One strand-interval entry of a rope's content list (Fig. 8/9).

    At least one track must be present.  When both are present their
    durations should agree to within one block period; the block-level
    correspondence (the starting block number of each track) is what the
    playback path uses to start the media together at interval
    boundaries.
    """

    video: Optional[MediaTrack] = None
    audio: Optional[MediaTrack] = None
    triggers: Tuple[Trigger, ...] = ()

    def __post_init__(self) -> None:
        if self.video is None and self.audio is None:
            raise IntervalError("a segment needs at least one media track")

    @property
    def duration(self) -> float:
        """Playback length in seconds (video governs when present)."""
        if self.video is not None:
            return self.video.duration
        assert self.audio is not None
        return self.audio.duration

    def strand_ids(self) -> List[str]:
        """Strands this segment references."""
        return [
            track.strand_id for track in (self.video, self.audio) if track
        ]

    def slice(self, offset_seconds: float, duration_seconds: float) -> "Segment":
        """Sub-segment; slices every present track consistently."""
        video, audio = self.video, self.audio
        return Segment(
            video=video and video.slice(offset_seconds, duration_seconds),
            audio=audio and audio.slice(offset_seconds, duration_seconds),
            triggers=self.triggers,
        )

    def with_tracks(
        self,
        video: Optional[MediaTrack],
        audio: Optional[MediaTrack],
    ) -> "Segment":
        """Copy with replaced tracks (used by single-medium REPLACE)."""
        return Segment(video=video, audio=audio, triggers=self.triggers)


def total_duration(segments: Sequence[Segment]) -> float:
    """Playback length of a segment list, seconds."""
    return sum(segment.duration for segment in segments)


def _locate(
    segments: Sequence[Segment], position: float
) -> Tuple[int, float]:
    """Find (segment index, offset within it) for a time *position*.

    A position exactly at a boundary maps to the *start* of the following
    segment; ``position == total_duration`` maps to ``(len(segments), 0)``.
    """
    if position < -_EPSILON:
        raise IntervalError(f"position must be >= 0, got {position}")
    elapsed = 0.0
    for index, segment in enumerate(segments):
        end = elapsed + segment.duration
        if position < end - _EPSILON:
            return index, max(0.0, position - elapsed)
        elapsed = end
    if position <= elapsed + _EPSILON:
        return len(segments), 0.0
    raise IntervalError(
        f"position {position:.6f} s beyond rope end {elapsed:.6f} s"
    )


def slice_segments(
    segments: Sequence[Segment], start: float, length: float
) -> List[Segment]:
    """The sub-list of segments covering ``[start, start+length)``.

    Partial overlaps are cut with :meth:`Segment.slice`; this is the
    engine of SUBSTRING and the read side of REPLACE.
    """
    if length <= _EPSILON:
        raise IntervalError(f"length must be positive, got {length}")
    end = start + length
    rope_end = total_duration(segments)
    if end > rope_end + max(_EPSILON, 0.5 / _max_rate(segments)):
        raise IntervalError(
            f"interval [{start}, {end}) extends past rope end {rope_end}"
        )
    result: List[Segment] = []
    elapsed = 0.0
    for segment in segments:
        seg_start, seg_end = elapsed, elapsed + segment.duration
        overlap_start = max(start, seg_start)
        overlap_end = min(end, seg_end)
        if overlap_end - overlap_start > _EPSILON:
            result.append(
                segment.slice(
                    overlap_start - seg_start, overlap_end - overlap_start
                )
            )
        elapsed = seg_end
    if not result:
        raise IntervalError(
            f"interval [{start}, {end}) selects no content"
        )
    return result


def _max_rate(segments: Sequence[Segment]) -> float:
    rates = [1.0]
    for segment in segments:
        if segment.video is not None:
            rates.append(segment.video.rate)
        if segment.audio is not None:
            rates.append(segment.audio.rate)
    return max(rates)


def splice_segments(
    segments: Sequence[Segment],
    position: float,
    insertion: Sequence[Segment],
) -> List[Segment]:
    """Insert *insertion* at time *position*, splitting a segment if needed.

    This is Fig. 9's INSERT engine: the base list is cut at *position*
    and the insertion's segments are placed between the halves.
    """
    index, offset = _locate(segments, position)
    result = list(segments[:index])
    if index < len(segments) and offset > _EPSILON:
        target = segments[index]
        result.append(target.slice(0.0, offset))
        result.extend(insertion)
        remainder = target.duration - offset
        if remainder > _EPSILON:
            result.append(target.slice(offset, remainder))
        result.extend(segments[index + 1:])
        return result
    result.extend(insertion)
    result.extend(segments[index:])
    return result


def delete_range(
    segments: Sequence[Segment], start: float, length: float
) -> List[Segment]:
    """Remove ``[start, start+length)`` from the list (DELETE's engine)."""
    if length <= _EPSILON:
        raise IntervalError(f"length must be positive, got {length}")
    end = start + length
    result: List[Segment] = []
    elapsed = 0.0
    for segment in segments:
        seg_start, seg_end = elapsed, elapsed + segment.duration
        elapsed = seg_end
        if seg_end <= start + _EPSILON or seg_start >= end - _EPSILON:
            result.append(segment)
            continue
        # Keep any prefix before the deleted range.
        if start - seg_start > _EPSILON:
            result.append(segment.slice(0.0, start - seg_start))
        # Keep any suffix after the deleted range.
        if seg_end - end > _EPSILON:
            result.append(segment.slice(end - seg_start, seg_end - end))
    if not result:
        raise IntervalError("DELETE removed the entire rope content")
    return result
