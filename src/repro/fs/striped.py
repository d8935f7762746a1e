"""Striped strand storage on multi-head arrays (§3.1's concurrent path).

The concurrent architecture (Fig. 3, Eq. 3) assumes p disk accesses in
flight at once; for that to work, consecutive blocks of a strand must
live on *different* mechanisms.  :class:`StripedStorageManager` provides
the storage side: strand block i is placed on member drive ``i mod p``,
with constrained scattering enforced per member between the blocks that
share a drive (blocks i and i+p) — the positioning bound that matters,
because that is the seek each head actually performs between its
consecutive accesses.

Per §3.3.4, the per-member scattering bound comes from Eq. (3): a head
has (p−1) block-playback periods to complete each access, so striping
relaxes the placement constraint by a factor ≈ (p−1) — exactly the
"concurrent" column of experiment E1, now realized end to end through
storage, not just synthetic placements.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.continuity import Architecture, max_scattering
from repro.core.symbols import (
    DisplayDeviceParameters,
    VideoStream,
    video_block_model,
)
from repro.disk.allocation import ConstrainedScatterAllocator, ScatterBounds
from repro.disk.freemap import FreeMap
from repro.disk.raid import DriveArray, StripedSlot
from repro.errors import (
    AllocationError,
    DiskFullError,
    ParameterError,
    UnknownStrandError,
)
from repro.media.frames import Frame

__all__ = ["StripedStrand", "StripedStorageManager"]


@dataclass
class StripedStrand:
    """A video strand striped across an array.

    Attributes
    ----------
    strand_id:
        Unique identifier.
    granularity:
        Frames per block.
    addresses:
        Block addresses in playback order: (member drive, slot).
    tokens:
        Per-block frame tokens, for round-trip verification.
    bits:
        Per-block payload bits.
    frame_rate:
        Recording rate.
    """

    strand_id: str
    granularity: int
    addresses: List[StripedSlot]
    tokens: List[Tuple[str, ...]]
    bits: List[float]
    frame_rate: float

    @property
    def block_count(self) -> int:
        """Blocks in the strand."""
        return len(self.addresses)

    @property
    def block_playback_duration(self) -> float:
        """Nominal playback seconds per full block."""
        return self.granularity / self.frame_rate


class StripedStorageManager:
    """Video strand storage striped over a :class:`DriveArray`.

    Parameters
    ----------
    array:
        The member mechanisms (p = array.heads).
    video:
        Stream format stored.
    video_device:
        Display parameters; Eq. (3) with p = array.heads sets the
        per-member scattering bound.
    granularity:
        Frames per block (must fit the member block size).
    """

    def __init__(
        self,
        array: DriveArray,
        video: VideoStream,
        video_device: DisplayDeviceParameters,
        granularity: int = 4,
    ):
        if granularity < 1:
            raise ParameterError(
                f"granularity must be >= 1, got {granularity}"
            )
        block = video_block_model(video, granularity)
        if block.block_bits > array.block_bits:
            raise ParameterError(
                f"{granularity} frames ({block.block_bits:.0f} bits) "
                f"exceed the member block size ({array.block_bits:.0f})"
            )
        self.array = array
        self.video = video
        self.granularity = granularity
        params = array.parameters()
        # Eq. (3): each member may scatter its consecutive blocks within
        # (p−1) playback periods; headroom is measured per member hop.
        upper = max_scattering(
            Architecture.CONCURRENT, block, params, video_device,
            p=array.heads,
        )
        self.scattering_upper = upper
        self._freemaps = [
            FreeMap(member.slots) for member in array.drives
        ]
        self._allocators = [
            ConstrainedScatterAllocator(
                member, freemap, ScatterBounds(0.0, upper)
            )
            for member, freemap in zip(array.drives, self._freemaps)
        ]
        self._strands: Dict[str, StripedStrand] = {}
        self._ids = itertools.count(1)

    @property
    def heads(self) -> int:
        """Degree of striping p."""
        return self.array.heads

    def store_video_strand(self, frames: Sequence[Frame]) -> StripedStrand:
        """Stripe a frame sequence across the array's members."""
        if not frames:
            raise ParameterError("cannot store an empty strand")
        groups = [
            frames[start:start + self.granularity]
            for start in range(0, len(frames), self.granularity)
        ]
        # Block i lives on member i mod p; each member chain-places its
        # own share, and a member that cannot undoes the others'.
        placed: List[List[int]] = []
        try:
            for member, allocator in enumerate(self._allocators):
                share = len(range(member, len(groups), self.heads))
                placed.append(
                    allocator.allocate_strand(share) if share else []
                )
        except (AllocationError, DiskFullError):
            for allocator, slots in zip(self._allocators, placed):
                allocator.release(slots)
            raise
        heads = self.heads
        strand = StripedStrand(
            strand_id=f"X{next(self._ids):04d}",
            granularity=self.granularity,
            addresses=[
                StripedSlot(index % heads, placed[index % heads][index // heads])
                for index in range(len(groups))
            ],
            tokens=[tuple(frame.token for frame in group) for group in groups],
            bits=[sum(frame.size_bits for frame in group) for group in groups],
            frame_rate=self.video.frame_rate,
        )
        self._strands[strand.strand_id] = strand
        return strand

    def get_strand(self, strand_id: str) -> StripedStrand:
        """Look up a striped strand."""
        try:
            return self._strands[strand_id]
        except KeyError:
            raise UnknownStrandError(strand_id) from None

    def delete_strand(self, strand_id: str) -> None:
        """Reclaim a striped strand's blocks on every member."""
        strand = self.get_strand(strand_id)
        for address in strand.addresses:
            self._freemaps[address.drive_index].release(address.slot)
        del self._strands[strand_id]

    def occupancy(self) -> float:
        """Mean member occupancy."""
        return sum(f.occupancy for f in self._freemaps) / self.heads

    # -- playback ------------------------------------------------------------

    def playback_fetches(self, strand: StripedStrand):
        """The strand as a fetch sequence for simulate_concurrent.

        Block i's slot addresses member ``i mod p``, which is exactly the
        convention :func:`repro.service.playback.simulate_concurrent`
        applies, so the fetches can be handed to it with this manager's
        array.
        """
        from repro.rope.server import FetchColumns

        frame_duration = 1.0 / strand.frame_rate
        return FetchColumns(
            [address.slot for address in strand.addresses],
            strand.bits,
            [len(tokens) * frame_duration for tokens in strand.tokens],
            strand.tokens,
        )
