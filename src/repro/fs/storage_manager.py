"""The Multimedia Storage Manager (MSM) — §5.2's lower layer.

"This layer is responsible for physical storage of media strands on the
disk.  The functionality of the MSM include: determination of granularity
and scattering of strands, enforcing admission control to service multiple
requests simultaneously, and maintenance of scattering while editing."

The MSM owns the drive, the free map, the per-medium placement policies
(derived from the continuity analysis of §3), the strand table, and the
interest registry used for garbage collection.  Strand storage here is
*logical* — blocks are placed and indexed but no simulated time is
charged; the real-time behaviour is exercised by :mod:`repro.service`,
which replays stored placements through the same drive with timing.
"""

from __future__ import annotations

import itertools
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import admission
from repro.core.continuity import Architecture, max_scattering_mixed
from repro.core.granularity import (
    PlacementPolicy,
    derive_policy,
    max_granularity,
    scattering_lower_bound,
)
from repro.core.symbols import (
    AudioStream,
    DisplayDeviceParameters,
    VideoStream,
    audio_block_model,
    video_block_model,
)
from repro.disk.allocation import ConstrainedScatterAllocator, ScatterBounds
from repro.disk.drive import SimulatedDrive
from repro.disk.freemap import FreeMap
from repro.disk.layout import GapFiller
from repro.errors import (
    AllocationError,
    DiskFullError,
    ParameterError,
    UnknownStrandError,
    check_count,
)
from repro.fs.blocks import AudioPayload, BlockKind
from repro.fs.gc import GarbageCollector, InterestRegistry
from repro.fs.index import (
    PRIMARY_ENTRY_BITS,
    SECONDARY_ENTRY_BITS,
    StrandIndex,
    fanout_for,
)
from repro.fs.silence import plan_audio_blocks
from repro.fs.strand import Strand
from repro.media.audio import AudioChunk, SilenceDetector
from repro.media.frames import Frame, FrameColumn
from repro.obs.recorder import recorder_for

__all__ = ["MediaPolicies", "MultimediaStorageManager"]


@dataclass(frozen=True)
class MediaPolicies:
    """Derived placement policies, one per stored medium."""

    video: PlacementPolicy
    audio: PlacementPolicy
    mixed: PlacementPolicy


def _clamp_granularity(eta: int, unit_size: float, slot_bits: float) -> int:
    """Keep η·s within one block slot (all slots are one fixed size)."""
    capacity = int(slot_bits // unit_size)
    if capacity < 1:
        raise ParameterError(
            f"a {slot_bits}-bit slot cannot hold one {unit_size}-bit unit"
        )
    return max(1, min(eta, capacity))


def frame_columns(frames: Sequence[Frame], eta: int):
    """The units, video bits and tokens of *frames* cut into blocks of
    η frames (the last possibly shorter).  A :class:`FrameColumn` hands
    over its columns as they are; a list of frames is turned into them."""
    if isinstance(frames, FrameColumn):
        tokens, sizes = frames.tokens, frames.sizes
    else:
        tokens = tuple(frame.token for frame in frames)
        sizes = [frame.size_bits for frame in frames]
    starts = range(0, len(tokens), eta)
    blocks = [tokens[start:start + eta] for start in starts]
    bits = [sum(sizes[start:start + eta]) for start in starts]
    return list(map(len, blocks)), bits, blocks


class MultimediaStorageManager:
    """Strand storage over one simulated drive.

    Parameters
    ----------
    drive:
        The mechanism strands are placed on.
    video / audio:
        The stream formats this server stores.
    video_device / audio_device:
        Display-device parameters — their buffer sizes determine
        granularity (§3.3.4).
    general_admission:
        When True, the admission controller solves per-request k
        (``AdmissionController(per_request=True)``, the Eq.-11 general
        form) instead of the paper's uniform k — admits mixed
        audio+video populations the averaged model rejects.
    obs:
        Optional :class:`~repro.obs.Observability` handle.  When given,
        it is attached to the drive, its audit log is wired into the
        admission controller, and the storage hot paths report into its
        profiling timers; sessions built over this MSM inherit it.
    """

    def __init__(
        self,
        drive: SimulatedDrive,
        video: VideoStream,
        audio: AudioStream,
        video_device: DisplayDeviceParameters,
        audio_device: DisplayDeviceParameters,
        general_admission: bool = False,
        obs=None,
    ):
        self.drive = drive
        self.obs = obs
        self._rec = recorder_for(obs, "msm")
        if obs is not None:
            drive.attach_observer(obs)
        self.freemap = FreeMap(drive.slots)
        self.video = video
        self.audio = audio
        self.video_device = video_device
        self.audio_device = audio_device
        #: The policies' retrieval architecture — the one the §3.4 loop runs —
        #: and §4.2 editing-copy budget, which sets the scattering lower bound.
        self.architecture = Architecture.PIPELINED
        self.copy_budget = 4
        self.disk_params = drive.parameters()
        self.policies = self._derive_policies()
        self.admission = admission.AdmissionController(
            self.disk_params, per_request=general_admission
        )
        if obs is not None:
            self.admission.audit = obs.audit
        self.interests = InterestRegistry()
        self.collector = GarbageCollector(self.interests, self.delete_strand)
        self._strands: Dict[str, Strand] = {}
        self._ids = itertools.count(1)
        self._gap_filler = GapFiller(self.freemap)
        self.degraded_heads = 0
        #: Blocks :meth:`relocate_strand` moved: a seam measured before may not hold.
        self.relocations = 0

    # -- degraded-mode admission (fault recovery) -------------------------------

    def revalidate_admission(self, heads_lost: int = 1) -> int:
        """Freeze admission after losing a disk head mid-service.

        The storage manager schedules one drive, whose parameters report
        one head, so a lost head leaves no mechanism to admit against:
        active requests keep playing — degraded, with recovery skips —
        but no *new* request is admitted.  Returns the n_max left, 0.
        """
        check_count("heads_lost", heads_lost)
        self.degraded_heads += heads_lost
        self.admission.freeze()
        if self._rec is not None:
            self._rec.revalidated(
                heads_lost, 1 - heads_lost, 1, 0, self.degraded_heads
            )
        return 0

    # -- admission (RPC-visible surface) -----------------------------------------

    def admit(self, descriptor, trace=None):
        """Run admission control for *descriptor* (§3.4, Eq. 17/18).

        This is the method the MRS calls across the RPC boundary; the
        optional *trace* keyword is a marshalled span context, reported
        with the verdict, so a session's trace stays connected from the
        server front end down into the storage manager.
        """
        rec = self._rec if trace is not None else None
        try:
            decision = self.admission.admit(descriptor)
        except Exception as error:
            if rec is not None:
                rec.msm_admitted(trace, error=error)
            raise
        if rec is not None:
            rec.msm_admitted(trace, decision.request_id)
        return decision

    def release(self, request_id: str, trace=None) -> None:
        """Release an admitted request's service slot (RPC-visible)."""
        self.admission.release(request_id)
        if trace is not None and self._rec is not None:
            self._rec.msm_released(trace)

    # -- admission descriptors ---------------------------------------------------

    def descriptor_for_media(
        self, includes_video: bool
    ) -> admission.RequestDescriptor:
        """Admission descriptor for a request's dominant medium.

        Video dominates whenever selected (it is "the most demanding
        medium" per §3); audio-only requests use the audio policy.  The
        MSM owns this derivation because the policies and disk
        parameters live here — the MRS and the media server both ask
        for descriptors through this one method.
        """
        if includes_video:
            policy = self.policies.video
            block = video_block_model(self.video, policy.granularity)
        else:
            policy = self.policies.audio
            block = audio_block_model(self.audio, policy.granularity)
        scattering = min(
            self.disk_params.seek_avg, policy.scattering_upper
        )
        return admission.RequestDescriptor(
            block=block, scattering_avg=scattering
        )

    # -- policy derivation -----------------------------------------------------

    def _derive_policies(self) -> MediaPolicies:
        slot_bits = self.drive.block_bits
        video_eta = _clamp_granularity(
            max_granularity(self.architecture, self.video_device),
            self.video.frame_size,
            slot_bits,
        )
        video_policy = derive_policy(
            video_block_model(self.video, video_eta),
            self.disk_params,
            self.video_device,
            architecture=self.architecture,
            copy_budget=self.copy_budget,
            granularity=video_eta,
        )
        audio_eta = _clamp_granularity(
            max_granularity(self.architecture, self.audio_device),
            self.audio.sample_size,
            slot_bits,
        )
        audio_policy = derive_policy(
            audio_block_model(self.audio, audio_eta),
            self.disk_params,
            self.audio_device,
            architecture=self.architecture,
            copy_budget=self.copy_budget,
            granularity=audio_eta,
        )
        # Heterogeneous blocks: video granularity, with the corresponding
        # audio payload sharing the block; the §3.3.3 Eq.-(6) bound governs.
        audio_per_video_block = max(
            1,
            int(
                self.audio.sample_rate
                * video_eta
                / self.video.frame_rate
            ),
        )
        mixed_eta = _clamp_granularity(
            video_eta,
            self.video.frame_size
            + audio_per_video_block
            * self.audio.sample_size
            / max(1, video_eta),
            slot_bits,
        )
        mixed_upper = max_scattering_mixed(
            video_block_model(self.video, mixed_eta),
            audio_block_model(self.audio, audio_per_video_block),
            self.disk_params,
            heterogeneous=True,
        )
        mixed_policy = PlacementPolicy(
            granularity=mixed_eta,
            block_bits=mixed_eta * self.video.frame_size
            + audio_per_video_block * self.audio.sample_size,
            scattering_lower=scattering_lower_bound(
                self.disk_params, self.copy_budget
            ),
            scattering_upper=mixed_upper,
            architecture=self.architecture,
        )
        return MediaPolicies(
            video=video_policy, audio=audio_policy, mixed=mixed_policy
        )

    def policy_for(self, kind: BlockKind) -> PlacementPolicy:
        """The placement policy governing a block kind."""
        if kind is BlockKind.VIDEO:
            return self.policies.video
        if kind is BlockKind.AUDIO:
            return self.policies.audio
        if kind is BlockKind.MIXED:
            return self.policies.mixed
        raise ParameterError(f"no placement policy for {kind}")

    def _placer(self, shape) -> ConstrainedScatterAllocator:
        """The chain placer for a policy's (or a strand's) bounds."""
        return ConstrainedScatterAllocator(
            self.drive, self.freemap,
            ScatterBounds(shape.scattering_lower, shape.scattering_upper),
        )

    # -- the write path ------------------------------------------------------------

    def _write_strand(
        self,
        kind: BlockKind,
        unit_rate: float,
        shape,
        units: Sequence[int],
        bits: Sequence[float],
        tokens: Sequence[Tuple[str, ...]],
        audio: Optional[Sequence[Optional[AudioPayload]]] = None,
        hint: Optional[int] = None,
        slots: Optional[Sequence[int]] = None,
    ) -> Strand:
        """Bring one strand into being — the only place that does.

        *shape* gives ``granularity`` and the scattering bounds (a
        :class:`PlacementPolicy`, or a copy's source strand).  The strand
        comes as :meth:`Strand.extend`'s columns less the slots, a None
        audio payload marking a silence holder.  Its stored blocks are
        chain-placed from *hint*, or — exact *slots* given — claim those,
        all or none; index blocks take the lowest free slots.  Whatever
        fails, every slot this call took goes back before the error
        propagates: a failed store owns nothing.
        """
        if slots is not None:
            self.freemap.claim(slots)
            taken = column = list(slots)
        else:
            stored = len(units) - (0 if audio is None else audio.count(None))
            placer = self._placer(shape)
            taken = column = (
                placer.allocate_strand(stored, hint) if stored else []
            )
            if stored < len(units):     # silence holders take no slot
                placed = iter(taken)
                column = [
                    None if payload is None else next(placed)
                    for payload in audio
                ]
        try:
            slot_bits = self.drive.block_bits
            strand = Strand(
                strand_id=f"S{next(self._ids):04d}",
                kind=kind,
                unit_rate=unit_rate,
                granularity=shape.granularity,
                sectors_per_block=self.drive.sectors_per_block,
                index=StrandIndex(
                    frame_rate=unit_rate,
                    primary_fanout=fanout_for(slot_bits, PRIMARY_ENTRY_BITS),
                    secondary_fanout=fanout_for(
                        slot_bits, SECONDARY_ENTRY_BITS
                    ),
                ),
                scattering_lower=shape.scattering_lower,
                scattering_upper=shape.scattering_upper,
            )
            strand.extend(column, units, bits, tokens, audio)
            index_slots = self._gap_filler.place(
                strand.index.index_block_count()
            )
            taken = taken + index_slots
            strand.index.assign_slots(index_slots)
        except BaseException:
            self._release(taken)
            raise
        self._strands[strand.strand_id] = strand.finalize()
        return strand

    def _release(self, slots: Sequence[int]) -> None:
        for slot in slots:
            self.freemap.release(slot)

    # -- strand bookkeeping ------------------------------------------------------

    def get_strand(self, strand_id: str) -> Strand:
        """Look up a strand; raises :class:`UnknownStrandError`."""
        try:
            return self._strands[strand_id]
        except KeyError:
            raise UnknownStrandError(strand_id) from None

    def strand_ids(self) -> List[str]:
        """All stored strand IDs, sorted."""
        return sorted(self._strands)

    @property
    def occupancy(self) -> float:
        """Disk-occupancy fraction (drives the §4.2 sparse/dense regime)."""
        return self.freemap.occupancy

    # -- recording (batch interfaces) ---------------------------------------------

    def _stored(self, medium: str):
        """Context of one ``store_*_strand`` body: reported (and timed)
        when observed."""
        if self._rec is None:
            return nullcontext()
        return self._rec.strand_stored(medium)

    def store_video_strand(
        self,
        frames: Sequence[Frame],
        hint: Optional[int] = None,
    ) -> Strand:
        """Store a video frame sequence as a new strand."""
        with self._stored("video"):
            if not frames:
                raise ParameterError("cannot store an empty video strand")
            policy = self.policies.video
            return self._write_strand(
                BlockKind.VIDEO, self.video.frame_rate, policy,
                *frame_columns(frames, policy.granularity), hint=hint,
            )

    def store_audio_strand(
        self,
        chunks: Sequence[AudioChunk],
        detector: Optional[SilenceDetector] = SilenceDetector(),
        hint: Optional[int] = None,
    ) -> Strand:
        """Store a chunked audio stream, applying silence elimination.

        Pass ``detector=None`` to store every block (the E10 baseline).
        """
        with self._stored("audio"):
            if not chunks:
                raise ParameterError("cannot store an empty audio strand")
            policy = self.policies.audio
            plan = plan_audio_blocks(
                self.audio, chunks, policy.granularity, detector
            )
            count = plan.block_count
            return self._write_strand(
                BlockKind.AUDIO, self.audio.sample_rate, policy,
                [plan.samples_in_block(number) for number in range(count)],
                [0.0] * count, [()] * count, list(plan.payloads), hint=hint,
            )

    def store_mixed_strand(
        self,
        frames: Sequence[Frame],
        chunks: Sequence[AudioChunk],
        hint: Optional[int] = None,
    ) -> Strand:
        """Store video + audio together in heterogeneous blocks (§3.3.3).

        Each block holds η_vs frames plus the audio samples spanning the
        same playback period, giving "implicit inter-media
        synchronization".
        """
        with self._stored("mixed"):
            if not frames or not chunks:
                raise ParameterError("a mixed strand needs both media")
            policy = self.policies.mixed
            eta = policy.granularity
            total_samples = chunks[-1].end_sample
            samples_per_block = int(
                self.audio.sample_rate * eta / self.video.frame_rate
            )
            units, bits, tokens = frame_columns(frames, eta)
            if (len(units) - 1) * samples_per_block >= total_samples:
                raise ParameterError(
                    f"the video runs {len(units)} blocks but the audio "
                    f"ends at sample {total_samples}: a mixed strand "
                    "stores no audio that was never captured"
                )
            audio = []
            for number in range(len(units)):
                start = number * samples_per_block
                count = max(1, min(samples_per_block, total_samples - start))
                audio.append(AudioPayload(
                    start, count, 0.5, count * self.audio.sample_size
                ))
            return self._write_strand(
                BlockKind.MIXED, self.video.frame_rate, policy,
                units, bits, tokens, audio, hint=hint,
            )

    # -- editing support (§4.2) ---------------------------------------------------

    def create_copied_strand(
        self,
        source: Strand,
        block_numbers: Sequence[int],
        slots: Sequence[int],
    ) -> Strand:
        """Copy specific blocks of *source* into caller-chosen free slots.

        The §4.2 repairer computes redistribution positions itself
        (equal spacing between the seam's anchors) and hands the exact
        slots here; this method claims them — all or none — copies the
        block contents, and registers the result as a new immutable
        strand.
        """
        if len(block_numbers) != len(slots):
            raise ParameterError(
                f"{len(block_numbers)} blocks but {len(slots)} slots"
            )
        if not block_numbers:
            raise ParameterError("no blocks to copy")
        for number in block_numbers:
            if source.slot_of(number) is None:
                raise ParameterError(
                    f"block {number} of {source.strand_id} is a silence "
                    "holder; copy stored blocks only"
                )
        return self._write_strand(
            source.kind, source.unit_rate, source,
            *source.contents(block_numbers), slots=slots,
        )

    def relocate_strand(self, strand_id: str, hint: int) -> int:
        """Re-place a strand's media blocks compactly from *hint* (§6.2).

        Physical migration only: the media sequence is untouched and the
        index is rewritten to the new addresses.  The old slots are
        returned first so the placer can reuse the strand's own region; a
        placement that fails claims exactly them back.  Returns the
        number of blocks moved.
        """
        strand = self.get_strand(strand_id)
        old_slots = strand.slots()
        if not old_slots:
            return 0
        placer = self._placer(strand)
        self._release(old_slots)
        try:
            new_slots = placer.allocate_strand(len(old_slots), hint)
        except (AllocationError, DiskFullError):
            self.freemap.claim(old_slots)
            return 0
        numbers = range(strand.block_count)
        stored = [n for n in numbers if strand.slot_of(n) is not None]
        for number, new_slot in zip(stored, new_slots):
            strand.relocate_block(number, new_slot)
        moved = sum(new != old for new, old in zip(new_slots, old_slots))
        self.relocations += moved
        return moved

    # -- deletion -------------------------------------------------------------------

    def delete_strand(self, strand_id: str) -> None:
        """Reclaim a strand's media and index blocks."""
        strand = self.get_strand(strand_id)
        self._release(strand.slots() + strand.index.assigned_slots())
        del self._strands[strand_id]

    def collect_garbage(self) -> List[str]:
        """Run the interest-based collector over all strands."""
        return self.collector.collect(self.strand_ids())
