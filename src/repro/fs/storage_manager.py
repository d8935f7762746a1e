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
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Union

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
)
from repro.fs.blocks import AudioPayload, BlockKind, MediaBlock
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
from repro.media.frames import Frame
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
    architecture:
        Retrieval architecture the policies are derived for.
    copy_budget:
        §4.2 editing-copy budget, setting the scattering lower bound.
    general_admission:
        When True, use the per-request-k controller
        (:class:`repro.core.general_admission.GeneralAdmissionController`,
        the Eq.-11 general form) instead of the paper's uniform-k
        algorithm — admits mixed audio+video populations the averaged
        model rejects.
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
        architecture: Architecture = Architecture.PIPELINED,
        copy_budget: int = 4,
        freemap: Optional[FreeMap] = None,
        general_admission: bool = False,
        obs=None,
    ):
        self.drive = drive
        self.obs = obs
        self._rec = recorder_for(obs, "msm")
        if obs is not None:
            drive.attach_observer(obs)
        self.freemap = freemap if freemap is not None else FreeMap(drive.slots)
        self.video = video
        self.audio = audio
        self.video_device = video_device
        self.audio_device = audio_device
        self.architecture = architecture
        self.copy_budget = copy_budget
        self.disk_params = drive.parameters()
        self.policies = self._derive_policies()
        if general_admission:
            from repro.core.general_admission import (
                GeneralAdmissionController,
            )

            self.admission = GeneralAdmissionController(self.disk_params)
        else:
            self.admission = admission.AdmissionController(self.disk_params)
        if obs is not None:
            self.admission.audit = obs.audit
        self.interests = InterestRegistry()
        self.collector = GarbageCollector(self.interests, self.delete_strand)
        self._strands: Dict[str, Strand] = {}
        self._ids = itertools.count(1)
        self._gap_filler = GapFiller(self.freemap)
        self.degraded_heads = 0

    # -- degraded-mode admission (fault recovery) -------------------------------

    def revalidate_admission(self, heads_lost: int = 1) -> int:
        """Shrink admission capacity after losing disk heads mid-service.

        Degraded mode derates the analytic transfer rate by the surviving
        head fraction (each lost head takes its share of the aggregate
        bandwidth with it), which raises β and therefore lowers the
        Eq.-(17) capacity ``n_max = ⌈γ/β⌉ − 1``.  Active requests keep
        playing — degraded, with recovery skips — but no *new* request is
        admitted against capacity the hardware no longer has.

        Returns the revalidated n_max: for the currently active request
        set when one exists, else for a representative video request.
        0 means the server can admit nothing (the last head died).
        """
        if heads_lost < 1:
            raise ParameterError(
                f"heads_lost must be >= 1, got {heads_lost}"
            )
        total = max(1, self.disk_params.heads)
        surviving = total - heads_lost
        self.degraded_heads += heads_lost
        if surviving < 1:
            self.admission.freeze()
            self._report_revalidated(heads_lost, surviving, total, 0)
            return 0
        self.disk_params = replace(
            self.disk_params,
            transfer_rate=self.disk_params.transfer_rate
            * (surviving / total),
            heads=surviving,
        )
        self.admission.disk = self.disk_params
        requests = list(self.admission.active_requests.values())
        if not requests:
            probe = admission.RequestDescriptor(
                block=video_block_model(
                    self.video, self.policies.video.granularity
                ),
                scattering_avg=min(
                    self.policies.video.scattering_upper,
                    self.disk_params.seek_max,
                ),
            )
            requests = [probe]
        degraded_n_max = max(
            0,
            admission.n_max(
                admission.service_parameters(requests, self.disk_params)
            ),
        )
        self._report_revalidated(heads_lost, surviving, total, degraded_n_max)
        return degraded_n_max

    def _report_revalidated(
        self, heads_lost: int, surviving: int, total: int, new_n_max: int
    ) -> None:
        if self._rec is not None:
            self._rec.revalidated(
                heads_lost, surviving, total, new_n_max, self.degraded_heads
            )

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
        contents: Sequence[Union[MediaBlock, int]],
        hint: Optional[int] = None,
        slots: Optional[Sequence[int]] = None,
    ) -> Strand:
        """Bring one strand into being — the only place that does.

        *shape* gives ``granularity`` and the scattering bounds (a
        :class:`PlacementPolicy`, or a copy's source strand); *contents*
        is the strand in playback order, a :class:`MediaBlock` per stored
        block and an int (units covered) per silence holder.  Media slots
        are chain-placed from *hint*, or — exact *slots* given — claimed
        all or none; index blocks take the lowest free slots.  Whatever
        fails, every slot this call took goes back before the error
        propagates: a failed store owns nothing.
        """
        if slots is None:
            placer = self._placer(shape)
            stored = sum(1 for item in contents if not isinstance(item, int))
            taken = placer.allocate_strand(stored, hint) if stored else []
        else:
            self.freemap.claim(slots)
            taken = list(slots)
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
            media_slots = iter(taken)
            for item in contents:
                if isinstance(item, int):
                    strand.append_silence(item)
                else:
                    strand.append_block(item, next(media_slots))
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
            eta = policy.granularity
            blocks = []
            for start in range(0, len(frames), eta):
                group = frames[start:start + eta]
                blocks.append(MediaBlock(
                    kind=BlockKind.VIDEO,
                    video_tokens=tuple(frame.token for frame in group),
                    video_bits=sum(frame.size_bits for frame in group),
                ))
            return self._write_strand(
                BlockKind.VIDEO, self.video.frame_rate, policy, blocks, hint
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
            contents = [
                plan.samples_in_block(number) if payload is None
                else MediaBlock(kind=BlockKind.AUDIO, audio=payload)
                for number, payload in enumerate(plan.payloads)
            ]
            return self._write_strand(
                BlockKind.AUDIO, self.audio.sample_rate, policy, contents,
                hint,
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
            blocks = []
            for start in range(0, len(frames), eta):
                group = frames[start:start + eta]
                sample_start = len(blocks) * samples_per_block
                sample_count = max(
                    1, min(samples_per_block, total_samples - sample_start)
                )
                blocks.append(MediaBlock(
                    kind=BlockKind.MIXED,
                    video_tokens=tuple(frame.token for frame in group),
                    video_bits=sum(frame.size_bits for frame in group),
                    audio=AudioPayload(
                        start_sample=sample_start,
                        sample_count=sample_count,
                        average_energy=0.5,
                        bits=sample_count * self.audio.sample_size,
                    ),
                ))
            return self._write_strand(
                BlockKind.MIXED, self.video.frame_rate, policy, blocks, hint
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
        blocks = [source.block_at(number) for number in block_numbers]
        if None in blocks:
            raise ParameterError(
                f"block {block_numbers[blocks.index(None)]} of "
                f"{source.strand_id} is a silence holder; copy stored "
                "blocks only"
            )
        return self._write_strand(
            source.kind, source.unit_rate, source, blocks, slots=slots
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
            new_slots = iter(placer.allocate_strand(len(old_slots), hint))
        except (AllocationError, DiskFullError):
            self.freemap.claim(old_slots)
            return 0
        moved = 0
        for number in range(strand.block_count):
            current = strand.slot_of(number)
            if current is None:
                continue
            new_slot = next(new_slots)
            moved += new_slot != current
            strand.relocate_block(number, new_slot)
        return moved

    def restore_strands(self, strands: Sequence[Strand]) -> None:
        """Install strands decoded from a persisted image, claiming
        exactly the media and index slots they name — all, or none."""
        names = {strand.strand_id for strand in strands}
        if len(names) != len(strands) or names & self._strands.keys():
            raise ParameterError(
                "restored strand ids must be new and distinct"
            )
        self.freemap.claim(
            slot
            for strand in strands
            for slot in strand.slots() + strand.index.assigned_slots()
        )
        self._strands.update((strand.strand_id, strand) for strand in strands)

    # -- deletion -------------------------------------------------------------------

    def delete_strand(self, strand_id: str) -> None:
        """Reclaim a strand's media and index blocks."""
        strand = self.get_strand(strand_id)
        self._release(strand.slots() + strand.index.assigned_slots())
        del self._strands[strand_id]

    def collect_garbage(self) -> List[str]:
        """Run the interest-based collector over all strands."""
        return self.collector.collect(self.strand_ids())
