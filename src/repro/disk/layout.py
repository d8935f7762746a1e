"""Strand placement and measured-scattering validation.

:class:`StrandPlacer` drives an allocator to lay out all blocks of a media
strand and returns a :class:`Placement` that records the slots *and* the
positioning gaps the drive will actually incur between consecutive blocks.
Experiments use the measured gaps to verify that constrained allocation
delivers what the §3 analysis assumes, and that the baselines do not.

The module also implements the paper's "common file server" observation:
"using the gaps between successive blocks of a media strand to store text
files."  :class:`GapFiller` allocates non-real-time (text) blocks into the
free slots the scatter discipline leaves between media blocks, without
disturbing any existing placement.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Collection, List, Optional, Sequence

from repro.disk.allocation import Allocator
from repro.disk.drive import SimulatedDrive
from repro.disk.freemap import FreeMap
from repro.errors import DiskFullError, ParameterError

__all__ = ["Placement", "StrandPlacer", "GapFiller", "find_free_slot_near"]


def find_free_slot_near(
    freemap: FreeMap,
    drive: SimulatedDrive,
    cylinder: int,
    max_widen: Optional[int] = None,
    taken: Collection[int] = (),
) -> int:
    """The free slot whose cylinder is closest to *cylinder*.

    Searches outward (±1 cylinder, ±2, ...) up to *max_widen* cylinders
    (default: the whole disk).  Used by the §4.2 redistribution algorithm,
    which wants copied blocks at specific positions between two anchors;
    *taken* names slots it has already chosen and not yet claimed.

    Raises :class:`DiskFullError` when nothing is free within the widening
    limit.
    """
    cylinders = drive.geometry.cylinders
    cylinder = max(0, min(cylinders - 1, cylinder))
    if max_widen is None:
        max_widen = cylinders
    for widen in range(max_widen + 1):
        window = drive.slot_window(cylinder - widen, cylinder + widen)
        for slot in freemap.free_in_window(window.start, window.stop):
            if slot not in taken:
                return slot
    raise DiskFullError(
        f"no free slot within {max_widen} cylinders of cylinder {cylinder}"
    )


@dataclass(frozen=True)
class Placement:
    """The on-disk layout of one strand's blocks.

    Attributes
    ----------
    slots:
        Block slots in playback order.
    gaps:
        Positioning delay (seconds) between each consecutive slot pair;
        ``len(gaps) == len(slots) - 1``.
    """

    slots: Sequence[int]
    gaps: Sequence[float]

    def __post_init__(self) -> None:
        if len(self.slots) == 0:
            raise ParameterError("a placement needs at least one slot")
        if len(self.gaps) != len(self.slots) - 1:
            raise ParameterError(
                f"{len(self.slots)} slots require {len(self.slots) - 1} "
                f"gaps, got {len(self.gaps)}"
            )

    @property
    def block_count(self) -> int:
        """Number of blocks placed."""
        return len(self.slots)

    @property
    def max_gap(self) -> float:
        """Largest inter-block positioning delay (0 for 1-block strands)."""
        return max(self.gaps, default=0.0)

    @property
    def min_gap(self) -> float:
        """Smallest inter-block positioning delay (0 for 1-block strands)."""
        return min(self.gaps, default=0.0)

    @property
    def mean_gap(self) -> float:
        """Average inter-block positioning delay (0 for 1-block strands)."""
        if not self.gaps:
            return 0.0
        return sum(self.gaps) / len(self.gaps)

    def within(self, lower: float, upper: float) -> bool:
        """True when every gap lies in ``[lower, upper]``."""
        return all(lower <= gap <= upper for gap in self.gaps)


class StrandPlacer:
    """Places whole strands via an allocator and measures the result."""

    def __init__(self, drive: SimulatedDrive, allocator: Allocator):
        self.drive = drive
        self.allocator = allocator

    def place(self, block_count: int, hint: Optional[int] = None) -> Placement:
        """Allocate *block_count* slots and measure consecutive gaps."""
        slots = self.allocator.allocate_strand(block_count, hint)
        gaps = [
            self.drive.access_gap(a, b)
            for a, b in zip(slots, slots[1:])
        ]
        return Placement(slots=tuple(slots), gaps=tuple(gaps))

    def remove(self, placement: Placement) -> None:
        """Release every slot of a placement back to the free map."""
        self.allocator.release(list(placement.slots))


class GapFiller:
    """Stores non-real-time (text) blocks in the scatter gaps.

    Media strands placed with constrained scattering leave free slots
    between their blocks; a unified file server stores conventional files
    there.  Text blocks have no continuity requirement, so any free slot
    will do — this filler simply takes the lowest-numbered free slots,
    which are exactly the gap slots once media strands occupy the disk's
    low region.
    """

    def __init__(self, freemap: FreeMap):
        self.freemap = freemap

    def place(self, block_count: int) -> List[int]:
        """Allocate *block_count* free slots for text data, ascending."""
        if block_count < 1:
            raise ParameterError(
                f"block_count must be >= 1, got {block_count}"
            )
        if self.freemap.free_count < block_count:
            raise DiskFullError(
                f"need {block_count} slots, only "
                f"{self.freemap.free_count} free"
            )
        slots = list(islice(
            self.freemap.free_in_window(0, self.freemap.slots), block_count
        ))
        self.freemap.claim(slots)
        return slots

    def remove(self, slots: Sequence[int]) -> None:
        """Release text blocks."""
        for slot in slots:
            self.freemap.release(slot)
