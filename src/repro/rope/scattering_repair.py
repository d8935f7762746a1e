"""Maintenance of scattering while editing (§4.2).

After an edit, a rope is a sequence of strand intervals.  Within an
interval the scattering parameter is bounded by construction, but at a
*seam* — the hop from the last block of one interval to the first block
of the next — the two blocks may be up to a full-stroke seek apart, so
"discontinuities may be felt at interval boundaries during retrievals."

The repair: copy the first m blocks of the successor interval into new
positions spread evenly between the seam's two anchors, so every hop along
the patched path satisfies the successor strand's scattering upper bound.
Eq. (19)/(20) bound m by ``⌈l_seek_max/(2·l_lower)⌉`` (sparse disk) /
``⌈l_seek_max/l_lower⌉`` (dense disk); the repairer reports its measured
copy counts against those bounds so the experiments can verify the claim.

"copying creates a new strand containing only the copied blocks" — the
copies become a fresh immutable strand which the repaired rope references
in place of the successor interval's prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core.editing_bounds import seam_repair_bound
from repro.disk.layout import find_free_slot_near
from repro.errors import ParameterError, ScatteringError
from repro.fs.storage_manager import MultimediaStorageManager
from repro.fs.strand import Strand
from repro.rope.intervals import MediaTrack, Segment
from repro.rope.structures import Media

__all__ = ["SeamCheck", "RepairReport", "ScatteringRepairer"]


@dataclass(frozen=True)
class SeamCheck:
    """Continuity status of one interval seam for one medium."""

    segment_index: int
    medium: Media
    gap: float
    bound: float

    @property
    def violates(self) -> bool:
        """True when the seam's positioning delay exceeds the bound."""
        return self.gap > self.bound


@dataclass(frozen=True)
class RepairReport:
    """Outcome of a whole-rope repair pass."""

    seams_checked: int
    seams_violating: int
    seams_repaired: int
    blocks_copied: int
    paper_bound: int
    residual_violations: int


class ScatteringRepairer:
    """Checks and repairs interval-seam scattering for edited ropes."""

    def __init__(self, msm: MultimediaStorageManager):
        self.msm = msm
        self.drive = msm.drive

    # -- seam inspection ---------------------------------------------------------

    def _track_of(self, segment: Segment, medium: Media) -> Optional[MediaTrack]:
        return segment.video if medium is Media.VIDEO else segment.audio

    def _edge_slot(
        self, track: MediaTrack, last: bool
    ) -> Optional[int]:
        """Disk slot of the interval's first/last *stored* block.

        Silence holders have no slot; an all-silent interval imposes no
        seam constraint (returns None).
        """
        strand = self.msm.get_strand(track.strand_id)
        block_range = range(track.first_block, track.last_block + 1)
        numbers = reversed(block_range) if last else block_range
        for number in numbers:
            slot = strand.slot_of(number)
            if slot is not None:
                return slot
        return None

    def _seams(
        self, index: int, previous: Segment, current: Segment
    ) -> Iterator[Tuple[SeamCheck, MediaTrack, Strand, int]]:
        """The seams between two adjacent segments, one per shared medium:
        ``(check, successor track, successor strand, anchor slot)``.

        The anchor is the predecessor's last stored block.  A medium that
        either side lacks, or holds only silence for, has no seam.
        """
        for medium in (Media.VIDEO, Media.AUDIO):
            track_a = self._track_of(previous, medium)
            track_b = self._track_of(current, medium)
            if track_a is None or track_b is None:
                continue
            slot_a = self._edge_slot(track_a, last=True)
            slot_b = self._edge_slot(track_b, last=False)
            if slot_a is None or slot_b is None:
                continue
            strand_b = self.msm.get_strand(track_b.strand_id)
            check = SeamCheck(
                segment_index=index,
                medium=medium,
                gap=self.drive.access_gap(slot_a, slot_b),
                bound=strand_b.scattering_upper,
            )
            yield check, track_b, strand_b, slot_a

    def check_segments(self, segments: Sequence[Segment]) -> List[SeamCheck]:
        """Measure every seam of a segment list against its bound."""
        return [
            seam[0]
            for index in range(1, len(segments))
            for seam in self._seams(
                index, segments[index - 1], segments[index]
            )
        ]

    # -- repair --------------------------------------------------------------------

    def _max_hop_cylinders(self, bound: float) -> int:
        rotation = self.drive.rotation.average_latency
        budget = bound - rotation
        if budget < 0:
            raise ScatteringError(
                f"scattering bound {bound:.6f} s is below rotational "
                f"latency {rotation:.6f} s; no placement can satisfy it"
            )
        distance = self.drive.seek_model.max_distance_within(
            budget, self.drive.geometry.cylinders
        )
        return max(1, distance)

    def _plan_copies(
        self, track_b: MediaTrack, strand_b: Strand, anchor_slot: int,
        bound: float,
    ) -> Tuple[List[int], List[int]]:
        """Choose which blocks of the successor to copy, and to where.

        Returns (block_numbers, target_slots).  Block m+1 of the interval
        (the first *not* copied) is the far anchor; copies are placed at
        equally spaced cylinders between the two anchors — the paper's
        "redistributing ... equally in the region between".  The plan
        only chooses; ``create_copied_strand`` claims, all or none.
        """
        d_max = self._max_hop_cylinders(bound)
        anchor_cyl = self.drive.cylinder_of(anchor_slot)
        stored_numbers = [
            number
            for number in range(track_b.first_block, track_b.last_block + 1)
            if strand_b.slot_of(number) is not None
        ]
        if not stored_numbers:
            raise ParameterError("successor interval holds no stored blocks")
        limit = len(stored_numbers)
        for m in range(1, limit + 1):
            if m < limit:
                far_slot = strand_b.slot_of(stored_numbers[m])
                assert far_slot is not None
                far_cyl = self.drive.cylinder_of(far_slot)
            else:
                # Copying the whole interval: land the last copy near the
                # anchor's neighbourhood, one hop out.
                far_cyl = anchor_cyl + d_max * (m + 1)
                far_cyl = min(far_cyl, self.drive.geometry.cylinders - 1)
            span = far_cyl - anchor_cyl
            if abs(span) <= d_max * (m + 1):
                slots: List[int] = []
                for i in range(1, m + 1):
                    slots.append(find_free_slot_near(
                        self.msm.freemap, self.drive,
                        anchor_cyl + round(span * i / (m + 1)), taken=slots,
                    ))
                return stored_numbers[:m], slots
        raise ScatteringError(
            f"seam not repairable: even copying all {limit} blocks of the "
            "interval cannot satisfy the scattering bound"
        )

    def _split_track_after_copies(
        self,
        track_b: MediaTrack,
        strand_b: Strand,
        copied_numbers: Sequence[int],
        copy_strand: Strand,
    ) -> List[MediaTrack]:
        """Build the replacement tracks: copied prefix + original suffix."""
        g = track_b.granularity
        first_block = track_b.first_block
        offset_in_block = track_b.start_unit - first_block * g
        copied_units_total = sum(
            strand_b.units_of(number) for number in copied_numbers
        )
        prefix_length = min(
            copied_units_total - offset_in_block, track_b.length_units
        )
        if prefix_length < 1:
            raise ParameterError("copied prefix would be empty")
        prefix = MediaTrack(
            strand_id=copy_strand.strand_id,
            start_unit=offset_in_block,
            length_units=prefix_length,
            rate=track_b.rate,
            granularity=g,
        )
        remainder_length = track_b.length_units - prefix_length
        if remainder_length < 1:
            return [prefix]
        suffix = MediaTrack(
            strand_id=track_b.strand_id,
            start_unit=track_b.start_unit + prefix_length,
            length_units=remainder_length,
            rate=track_b.rate,
            granularity=g,
        )
        return [prefix, suffix]

    def repair_segments(
        self, segments: Sequence[Segment]
    ) -> Tuple[List[Segment], RepairReport]:
        """Repair every violating seam; returns (new segments, report).

        Seams are processed left to right.  A repaired seam replaces the
        successor segment with (copied-prefix segment, suffix segment);
        single-medium repairs split only the affected track, leaving the
        other medium's reference intact on both pieces.
        """
        working = list(segments)
        checked = violating = repaired = copied = residual = 0
        occupancy = self.msm.occupancy
        bound_report = 0
        index = 1
        while index < len(working):
            previous, current = working[index - 1], working[index]
            replaced = False
            for check, track_b, strand_b, slot_a in self._seams(
                index, previous, current
            ):
                checked += 1
                if not check.violates:
                    continue
                medium, bound = check.medium, check.bound
                violating += 1
                if strand_b.scattering_lower > 0:
                    bound_report = max(
                        bound_report,
                        seam_repair_bound(
                            self.msm.disk_params,
                            strand_b.scattering_lower,
                            strand_b.scattering_lower,
                            occupancy,
                        ).from_successor,
                    )
                try:
                    numbers, slots = self._plan_copies(
                        track_b, strand_b, slot_a, bound
                    )
                except ScatteringError:
                    residual += 1
                    continue
                copy_strand = self.msm.create_copied_strand(
                    strand_b, numbers, slots
                )
                tracks = self._split_track_after_copies(
                    track_b, strand_b, numbers, copy_strand
                )
                pieces = self._tracks_to_segments(current, medium, tracks)
                working[index:index + 1] = pieces
                repaired += 1
                copied += len(numbers)
                # Verify the whole patched chain — anchor through every
                # copied block.  (The copy→suffix hop is an ordinary
                # segment seam and is re-checked on the next iteration.)
                # A still-violating chain (free space was not where the
                # plan wanted it) is recorded as residual rather than
                # retried forever.
                chain = [slot_a] + copy_strand.slots()
                chain_ok = all(
                    self.drive.access_gap(first, second) <= bound
                    for first, second in zip(chain, chain[1:])
                )
                if chain_ok:
                    replaced = True
                else:
                    residual += 1
                break
            if not replaced:
                index += 1
        report = RepairReport(
            seams_checked=checked,
            seams_violating=violating,
            seams_repaired=repaired,
            blocks_copied=copied,
            paper_bound=bound_report,
            residual_violations=residual,
        )
        return working, report

    def _tracks_to_segments(
        self,
        segment: Segment,
        medium: Media,
        tracks: Sequence[MediaTrack],
    ) -> List[Segment]:
        """Rebuild segment(s) after the medium's track was split in two.

        The *other* medium (if present) is sliced to stay aligned with
        the pieces' durations.
        """
        if len(tracks) == 1:
            if medium is Media.VIDEO:
                return [segment.with_tracks(tracks[0], segment.audio)]
            return [segment.with_tracks(segment.video, tracks[0])]
        first, second = tracks
        cut = first.duration
        other = segment.audio if medium is Media.VIDEO else segment.video
        if other is None:
            if medium is Media.VIDEO:
                return [
                    Segment(video=first),
                    Segment(video=second, triggers=segment.triggers),
                ]
            return [
                Segment(audio=first),
                Segment(audio=second, triggers=segment.triggers),
            ]
        other_first = other.slice(0.0, cut)
        other_second = other.slice(cut, max(other.duration - cut, 1e-9))
        if medium is Media.VIDEO:
            return [
                Segment(video=first, audio=other_first),
                Segment(
                    video=second, audio=other_second,
                    triggers=segment.triggers,
                ),
            ]
        return [
            Segment(video=other_first, audio=first),
            Segment(
                video=other_second, audio=second,
                triggers=segment.triggers,
            ),
        ]
