"""The Multimedia Rope Server (MRS) — §5.2's upper layer.

"This layer is responsible for creating and maintaining the multimedia
ropes.  It supports all the rope manipulation operations."

The MRS exposes the §4.1 interfaces:

* ``RECORD [media] → [requestID, mmRopeID]`` — admission-controlled; audio
  passes through silence detection and elimination.
* ``PLAY [mmRopeID, interval, media] → requestID`` — admission-controlled.
* ``STOP [requestID]``.  ``PAUSE`` and ``RESUME`` are the verbs of
  :class:`~repro.server.MediaServer`, which holds each session's lease.
* The editing utilities INSERT, REPLACE, SUBSTRING, CONCATE, DELETE, all
  with access-right checks, automatic interest maintenance for garbage
  collection, and (optionally) §4.2 seam repair.

Playback itself is simulated by :mod:`repro.service`; the MRS hands it a
:class:`PlaybackPlan` — the flattened per-medium block-fetch sequence of a
rope interval.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.config import TESTBED_1991
from repro.disk.factory import build_drive
from repro.errors import (
    IntervalError,
    ParameterError,
    RequestStateError,
    UnknownRequestError,
    UnknownRopeError,
)
from repro.fs.storage_manager import MultimediaStorageManager
from repro.media.audio import AudioChunk, SilenceDetector
from repro.media.frames import Frame
from repro.rope import operations
from repro.rope.intervals import MediaTrack, Segment
from repro.rope.scattering_repair import RepairReport, ScatteringRepairer
from repro.rope.structures import Media, MultimediaRope

__all__ = [
    "RequestKind",
    "RequestState",
    "Request",
    "BlockFetch",
    "FetchColumns",
    "PlaybackPlan",
    "MultimediaRopeServer",
    "build_rope_server",
]


class RequestKind(enum.Enum):
    """What a request does."""

    PLAY = "play"
    RECORD = "record"


class RequestState(enum.Enum):
    """Lifecycle states of a PLAY/RECORD request (§4.1)."""

    ACTIVE = "active"
    STOPPED = "stopped"


@dataclass
class Request:
    """One outstanding PLAY or RECORD request."""

    request_id: str
    kind: RequestKind
    rope_id: str
    user: str
    media: Media
    start: float
    length: float
    state: RequestState = RequestState.ACTIVE
    admission_id: Optional[int] = None


@dataclass(frozen=True)
class BlockFetch:
    """One block's worth of playback work.

    Attributes
    ----------
    slot:
        Disk slot to read, or None for a silence delay holder (no disk
        access; the playback path synthesizes silence).
    bits:
        Bits transferred when the block is read (the full block payload —
        partial interval overlap does not shrink the disk transfer).
    duration:
        Playback time this fetch buys, seconds (the interval's overlap
        with the block).
    tokens:
        Frame content tokens covered by the overlap (video media only),
        for round-trip verification.
    """

    slot: Optional[int]
    bits: float
    duration: float
    tokens: Tuple[str, ...] = ()


@dataclass(eq=False, slots=True)
class FetchColumns(Sequence):
    """A fetch sequence held as parallel columns, one entry per block.

    ``columns[i]`` is the :class:`BlockFetch` of entry *i*, built when
    asked for; the service loop never asks — it reads ``slots[i]``,
    ``bits[i]`` and ``durations[i]`` at its cursor.  ``tokens`` is None
    for a sequence that carries no frame tokens.
    """

    slots: List[Optional[int]]
    bits: List[float]
    durations: List[float]
    tokens: Optional[List[Tuple[str, ...]]] = None

    @classmethod
    def uniform(
        cls, slots: Iterable[Optional[int]], bits: float, duration: float
    ) -> "FetchColumns":
        """Blocks at *slots* that all transfer *bits* and play *duration*."""
        slots = list(slots)
        return cls(slots, [bits] * len(slots), [duration] * len(slots))

    @classmethod
    def of(cls, fetches: Sequence[BlockFetch]) -> "FetchColumns":
        """*fetches* as columns (itself, when it already is)."""
        if isinstance(fetches, cls):
            return fetches
        return cls(
            [fetch.slot for fetch in fetches],
            [fetch.bits for fetch in fetches],
            [fetch.duration for fetch in fetches],
            [fetch.tokens for fetch in fetches],
        )

    def __len__(self) -> int:
        return len(self.slots)

    def __getitem__(self, index):
        tokens = self.tokens
        if isinstance(index, slice):
            return FetchColumns(
                self.slots[index], self.bits[index], self.durations[index],
                tokens and tokens[index],
            )
        return BlockFetch(
            self.slots[index], self.bits[index], self.durations[index],
            tokens[index] if tokens else (),
        )


@dataclass(frozen=True)
class PlaybackPlan:
    """Flattened fetch sequences for one request, per medium."""

    request_id: str
    video: FetchColumns
    audio: FetchColumns

    def tokens(self) -> List[str]:
        """All video frame tokens in playback order."""
        return [token for block in self.video.tokens for token in block]


class MultimediaRopeServer:
    """Rope management over one storage manager."""

    def __init__(
        self,
        msm: MultimediaStorageManager,
        auto_repair: bool = True,
    ):
        self.msm = msm
        self.repairer = ScatteringRepairer(msm)
        self.auto_repair = auto_repair
        self._ropes: Dict[str, MultimediaRope] = {}
        self._requests: Dict[str, Request] = {}
        self._rope_ids = itertools.count(1)
        self._request_ids = itertools.count(1)
        self.last_repair: Optional[RepairReport] = None
        #: rope ID -> (the rope a clean repair pass installed, the MSM's
        #: ``relocations`` then): an edit's operand every seam of which holds.
        self._verified: Dict[str, Tuple[MultimediaRope, int]] = {}

    # -- lookup ------------------------------------------------------------------

    def get_rope(self, rope_id: str) -> MultimediaRope:
        """Fetch a rope; raises :class:`UnknownRopeError`."""
        try:
            return self._ropes[rope_id]
        except KeyError:
            raise UnknownRopeError(rope_id) from None

    def get_request(self, request_id: str) -> Request:
        """Fetch a request; raises :class:`UnknownRequestError`."""
        try:
            return self._requests[request_id]
        except KeyError:
            raise UnknownRequestError(request_id) from None

    def rope_ids(self) -> List[str]:
        """All rope IDs, sorted."""
        return sorted(self._ropes)

    # -- admission plumbing -------------------------------------------------------

    @staticmethod
    def _whole(strand) -> MediaTrack:
        """The track covering all of *strand*."""
        return MediaTrack(
            strand_id=strand.strand_id,
            start_unit=0,
            length_units=strand.unit_count,
            rate=strand.unit_rate,
            granularity=strand.granularity,
        )

    def _admit(self, media: Media) -> int:
        """A service slot for a request's dominant medium, through the MSM
        — which owns the policies and disk parameters it is judged on."""
        descriptor = self.msm.descriptor_for_media(media.includes_video)
        return self.msm.admit(descriptor).request_id

    def _release(self, request: Request) -> None:
        """Give back the service slot *request* holds, if it holds one."""
        if request.admission_id is not None:
            self.msm.release(request.admission_id)
            request.admission_id = None

    # -- RECORD / PLAY / STOP ---------------------------------------------------------

    def record(
        self,
        user: str,
        frames: Optional[Sequence[Frame]] = None,
        chunks: Optional[Sequence[AudioChunk]] = None,
        detector: Optional[SilenceDetector] = SilenceDetector(),
        heterogeneous: bool = False,
        play_access: Sequence[str] = (),
        edit_access: Sequence[str] = (),
    ) -> Tuple[str, str]:
        """RECORD[media] → [requestID, mmRopeID] (§4.1).

        Stores the supplied captured media as new strands (applying
        silence elimination to audio), builds a one-segment rope, and
        registers interests.  The recording is admission-controlled like
        any other request; the returned request is left ACTIVE so callers
        can follow the paper's protocol ("recording continues until a
        subsequent STOP") — batch users may STOP immediately.
        """
        if frames is None and chunks is None:
            raise ParameterError("RECORD needs at least one medium")
        media = (
            Media.AUDIO_VISUAL
            if frames is not None and chunks is not None
            else (Media.VIDEO if frames is not None else Media.AUDIO)
        )
        if heterogeneous and (frames is None or chunks is None):
            raise ParameterError("heterogeneous recording needs both media")
        admission_id = self._admit(media)
        video = audio = None
        try:
            if heterogeneous:
                video = self.msm.store_mixed_strand(frames, chunks)
            else:
                if frames is not None:
                    video = self.msm.store_video_strand(frames)
                if chunks is not None:
                    audio = self.msm.store_audio_strand(chunks, detector)
        except BaseException:
            # A RECORD that cannot store holds nothing: not the service
            # slot it was admitted into, not the video half it did store.
            if video is not None:
                self.msm.delete_strand(video.strand_id)
            self.msm.release(admission_id)
            raise
        segment = Segment(
            video=None if video is None else self._whole(video),
            audio=None if audio is None else self._whole(audio),
        )
        rope = MultimediaRope(
            rope_id=f"R{next(self._rope_ids):04d}",
            creator=user,
            segments=(segment,),
            play_access=tuple(play_access),
            edit_access=tuple(edit_access),
        )
        self._install(rope)
        request = Request(
            request_id=f"Q{next(self._request_ids):04d}",
            kind=RequestKind.RECORD,
            rope_id=rope.rope_id,
            user=user,
            media=media,
            start=0.0,
            length=rope.duration,
            admission_id=admission_id,
        )
        self._requests[request.request_id] = request
        return request.request_id, rope.rope_id

    def adopt_strands(
        self,
        user: str,
        video_strand_id: Optional[str] = None,
        audio_strand_id: Optional[str] = None,
        play_access: Sequence[str] = (),
        edit_access: Sequence[str] = (),
    ) -> str:
        """Build a rope around strands already stored in the MSM.

        The §4.1 merge scenario (separately recorded audio and video tied
        together) and experiments that control strand placement use this;
        block-level correspondence is generated from the strands' starts.
        Returns the new rope's ID.
        """
        if video_strand_id is None and audio_strand_id is None:
            raise ParameterError("adopt_strands needs at least one strand")
        video_track: Optional[MediaTrack] = None
        audio_track: Optional[MediaTrack] = None
        if video_strand_id is not None:
            video_track = self._whole(self.msm.get_strand(video_strand_id))
        if audio_strand_id is not None:
            audio_track = self._whole(self.msm.get_strand(audio_strand_id))
        rope = MultimediaRope(
            rope_id=f"R{next(self._rope_ids):04d}",
            creator=user,
            segments=(Segment(video=video_track, audio=audio_track),),
            play_access=tuple(play_access),
            edit_access=tuple(edit_access),
        )
        self._install(rope)
        return rope.rope_id

    def play(
        self,
        user: str,
        rope_id: str,
        start: float = 0.0,
        length: Optional[float] = None,
        media: Media = Media.AUDIO_VISUAL,
    ) -> str:
        """PLAY[mmRopeID, interval, media] → requestID (§4.1)."""
        request = self._play_request(user, rope_id, start, length, media, admit=True)
        self._requests[request.request_id] = request
        return request.request_id

    def open_request(
        self,
        user: str,
        rope_id: str,
        start: float = 0.0,
        length: Optional[float] = None,
        media: Media = Media.AUDIO_VISUAL,
    ) -> str:
        """Create a PLAY request whose admission is managed externally.

        The media server admits batches, not individual requests: one
        lease per batch holds the slot (or the cache pins) for every
        member, so the request carries none and STOP releases nothing.
        Access and interval checks are those of :meth:`play`.
        """
        request = self._play_request(user, rope_id, start, length, media, admit=False)
        self._requests[request.request_id] = request
        return request.request_id

    def _play_request(
        self,
        user: str,
        rope_id: str,
        start: float,
        length: Optional[float],
        media: Media,
        admit: bool,
    ) -> Request:
        """A PLAY request on a checked interval, not yet registered; with
        *admit* it holds a service slot (refused before it takes an ID)."""
        rope = self.get_rope(rope_id)
        rope.check_play(user)
        if length is None:
            length = rope.duration - start
        if length <= 0:
            raise IntervalError(
                f"empty playback interval (start {start}, rope length "
                f"{rope.duration:.3f})"
            )
        # Callers admit on a request before (or without) planning it, so an
        # interval holding no block of the medium is refused here, before
        # any slot or ID: O(segments).
        operations.project_medium(self._played_segments(rope_id, start, length), media)
        admission_id = self._admit(media) if admit else None
        return Request(
            request_id=f"Q{next(self._request_ids):04d}",
            kind=RequestKind.PLAY,
            rope_id=rope_id,
            user=user,
            media=media,
            start=start,
            length=length,
            admission_id=admission_id,
        )

    def stop(self, request_id: str) -> None:
        """STOP[requestID]: halt storage/retrieval, release resources."""
        request = self.get_request(request_id)
        if request.state is RequestState.STOPPED:
            raise RequestStateError(f"request {request_id} already stopped")
        self._release(request)
        request.state = RequestState.STOPPED

    def active_requests(self) -> List[Request]:
        """Requests currently holding service resources."""
        return [
            request
            for request in self._requests.values()
            if request.state is RequestState.ACTIVE
        ]

    # -- rope installation / interests ----------------------------------------------

    def _install(self, rope: MultimediaRope) -> MultimediaRope:
        self._ropes[rope.rope_id] = rope
        self.msm.interests.sync_rope(rope.rope_id, rope.referenced_strands())
        return rope

    def _update(self, rope: MultimediaRope, segments) -> MultimediaRope:
        updated = rope.with_segments(segments)
        return self._install(updated)

    def _maybe_repair(
        self, rope: MultimediaRope, *operands: MultimediaRope
    ) -> MultimediaRope:
        """Repair an edit's result, measuring only the seams it created:
        a seam inside an *operand* this pass verified earlier still holds."""
        if not self.auto_repair:
            self.last_repair = None
            return rope
        relocations = self.msm.relocations
        verified = []
        for operand in operands:
            rope_then, then = self._verified.get(operand.rope_id, (None, -1))
            if rope_then is operand and then == relocations:
                verified.append(operand.segments)
        segments, report = self.repairer.repair_segments(
            rope.segments, verified
        )
        self.last_repair = report
        if report.seams_repaired:
            rope = self._update(rope, segments)
        if report.residual_violations:
            self._verified.pop(rope.rope_id, None)
        else:
            self._verified[rope.rope_id] = (rope, relocations)
        return rope

    def grant_access(
        self,
        user: str,
        rope_id: str,
        play: Sequence[str] = (),
        edit: Sequence[str] = (),
    ) -> MultimediaRope:
        """Extend a rope's Play/Edit access lists (Fig. 8 fields).

        Only a user with edit access (or the creator) may grant.
        """
        rope = self.get_rope(rope_id)
        rope.check_edit(user)
        updated = MultimediaRope(
            rope_id=rope.rope_id,
            creator=rope.creator,
            segments=rope.segments,
            play_access=tuple(dict.fromkeys((*rope.play_access, *play))),
            edit_access=tuple(dict.fromkeys((*rope.edit_access, *edit))),
        )
        return self._install(updated)

    def delete_rope(self, user: str, rope_id: str) -> List[str]:
        """Delete a rope, drop its interests, and collect garbage.

        Returns the strand IDs reclaimed by the collection pass.
        """
        rope = self.get_rope(rope_id)
        rope.check_edit(user)
        self.msm.interests.drop_rope(rope_id)
        del self._ropes[rope_id]
        self._verified.pop(rope_id, None)
        return self.msm.collect_garbage()

    # -- editing operations (§4.1) -----------------------------------------------------

    def insert(
        self,
        user: str,
        base_rope_id: str,
        position: float,
        media: Media,
        with_rope_id: str,
        with_start: float,
        with_length: float,
    ) -> MultimediaRope:
        """INSERT[baseRope, position, media, withRope, withInterval]."""
        base = self.get_rope(base_rope_id)
        base.check_edit(user)
        source = self.get_rope(with_rope_id)
        source.check_play(user)
        segments = operations.insert(
            base.segments, position, media,
            source.segments, with_start, with_length,
        )
        updated = self._update(base, segments)
        return self._maybe_repair(updated, base, source)

    def replace(
        self,
        user: str,
        base_rope_id: str,
        media: Media,
        base_start: float,
        base_length: float,
        with_rope_id: str,
        with_start: float,
        with_length: float,
    ) -> MultimediaRope:
        """REPLACE[baseRope, media, baseInterval, withRope, withInterval]."""
        base = self.get_rope(base_rope_id)
        base.check_edit(user)
        source = self.get_rope(with_rope_id)
        source.check_play(user)
        segments = operations.replace(
            base.segments, media, base_start, base_length,
            source.segments, with_start, with_length,
        )
        updated = self._update(base, segments)
        return self._maybe_repair(updated, base, source)

    def substring(
        self,
        user: str,
        base_rope_id: str,
        media: Media,
        start: float,
        length: float,
    ) -> MultimediaRope:
        """SUBSTRING[baseRope, media, interval] → a new rope."""
        base = self.get_rope(base_rope_id)
        base.check_play(user)
        segments = operations.substring(base.segments, media, start, length)
        rope = MultimediaRope(
            rope_id=f"R{next(self._rope_ids):04d}",
            creator=user,
            segments=tuple(segments),
        )
        installed = self._install(rope)
        return self._maybe_repair(installed, base)

    def concate(
        self, user: str, first_rope_id: str, second_rope_id: str
    ) -> MultimediaRope:
        """CONCATE[mmRopeID1, mmRopeID2]: appends second to first."""
        first = self.get_rope(first_rope_id)
        first.check_edit(user)
        second = self.get_rope(second_rope_id)
        second.check_play(user)
        segments = operations.concate(first.segments, second.segments)
        updated = self._update(first, segments)
        return self._maybe_repair(updated, first, second)

    def delete(
        self,
        user: str,
        base_rope_id: str,
        media: Media,
        start: float,
        length: float,
    ) -> MultimediaRope:
        """DELETE[baseRope, media, interval]."""
        base = self.get_rope(base_rope_id)
        base.check_edit(user)
        segments = operations.delete(base.segments, media, start, length)
        updated = self._update(base, segments)
        return self._maybe_repair(updated, base)

    # -- triggers (Fig. 8) -------------------------------------------------------------

    def add_trigger(
        self, user: str, rope_id: str, time: float, text: str
    ) -> MultimediaRope:
        """Attach synchronized text at playback *time* of a rope."""
        from repro.rope.triggers import attach_trigger

        rope = self.get_rope(rope_id)
        rope.check_edit(user)
        segments = attach_trigger(rope.segments, time, text)
        return self._update(rope, segments)

    def trigger_schedule(self, request_id: str):
        """Trigger firings for a PLAY request: ``[(offset_s, text), ...]``.

        Offsets are relative to the request's interval start; triggers
        outside the played interval do not fire.
        """
        from repro.rope.triggers import trigger_schedule

        request = self.get_request(request_id)
        return trigger_schedule(
            self._played_segments(request.rope_id, request.start, request.length)
        )

    # -- playback planning -----------------------------------------------------------

    def _played_segments(
        self, rope_id: str, start: float, length: float
    ) -> List[Segment]:
        """The segments of a rope inside ``[start, start + length)``;
        :class:`IntervalError` when that selects no content."""
        rope = self.get_rope(rope_id)
        if (start, length) == (0.0, rope.duration):
            return list(rope.segments)
        return operations.substring(
            rope.segments, Media.AUDIO_VISUAL, start, length
        )

    def playback_plan(self, request_id: str) -> PlaybackPlan:
        """Flatten a PLAY request's rope interval into block fetches."""
        request = self.get_request(request_id)
        segments = self._played_segments(
            request.rope_id, request.start, request.length
        )
        video = FetchColumns([], [], [], [])
        audio = FetchColumns([], [], [])
        for segment in segments:
            if request.media.includes_video and segment.video is not None:
                self._extend(video, segment.video)
            if request.media.includes_audio and segment.audio is not None:
                self._extend(audio, segment.audio)
        return PlaybackPlan(request_id=request_id, video=video, audio=audio)

    def _extend(self, plan: FetchColumns, track: MediaTrack) -> None:
        """Append *track*'s blocks to *plan*: slices of its strand's columns.

        A whole block plays ``units / rate`` seconds.  Only the interval's
        first and last block can be clipped: their duration and tokens
        cover the overlap alone (the disk transfer stays the full block),
        and an edge block the interval does not reach is dropped.
        """
        strand = self.msm.get_strand(track.strand_id)
        first, rate = track.first_block, track.rate
        slots, bits, units, tokens = strand.columns(first, track.last_block)
        durations = [count / rate for count in units]
        last = len(slots) - 1
        # Last edge first, so dropping it cannot shift the first one.
        for edge in (last, 0) if last else (0,):
            block_start = (first + edge) * track.granularity
            begin = max(track.start_unit, block_start)
            end = min(track.end_unit, block_start + units[edge])
            if end <= begin:
                del slots[edge], bits[edge], durations[edge], tokens[edge]
                continue
            durations[edge] = (end - begin) / rate
            tokens[edge] = tokens[edge][begin - block_start:end - block_start]
        plan.slots += slots
        plan.bits += bits
        plan.durations += durations
        if plan.tokens is not None:
            plan.tokens += tokens


def build_rope_server(
    obs=None, label: Optional[str] = None
) -> MultimediaRopeServer:
    """Testbed drive -> storage manager -> rope server, wired in one place:
    the 1991 testbed's mechanism, streams and devices.

    *label* becomes the drive's ``profile_label`` so per-drive profiler
    rollups can tell shards apart.  Every scenario, ``build_media_server``
    and ``build_node`` construct their stack through this function.
    """
    drive = build_drive()
    if label is not None:
        drive.profile_label = label
    msm = MultimediaStorageManager(
        drive,
        TESTBED_1991.video,
        TESTBED_1991.audio,
        TESTBED_1991.video_device,
        TESTBED_1991.audio_device,
        obs=obs,
    )
    return MultimediaRopeServer(msm)
