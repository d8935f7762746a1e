"""The 3-level strand block index (§3.5, Figs. 5 and 6).

"For each strand, the file system maintains primary indices in a sequence
of Primary Blocks (PB), each of which contains mapping from media block
numbers to their raw disk addresses.  Secondary indices, which are
pointers to Primary Blocks, are maintained in a sequence of Secondary
Blocks (SB).  Pointers to all Secondary Blocks of a strand are stored in
the Header Block (HB)."

The structure "permits large strand sizes, and random as well as
concurrent access to strands": because a strand is immutable, its primary
blocks fill uniformly, and block number → (SB, PB, entry) resolves with
two divisions — no tree walk.

"We use NULL pointers in the primary blocks of a strand to indicate
silence for the duration of a block" — a primary entry of ``None`` is a
silence delay holder; lookups return it as such and the playback path
synthesizes silence without any disk access.

Entry sizes follow Fig. 6's field lists (four-byte fields): a primary
entry is 2 fields (sector, sectorCount) = 64 bits; a secondary entry is 4
fields = 128 bits; fan-outs derive from the disk block size.  Every block
of a strand spans the same sectorCount, so a primary block holds one
sector int per block and the index holds the count once;
:class:`PrimaryEntry` is the view :meth:`StrandIndex.lookup` hands out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence

from repro.errors import IndexCorruptionError, ParameterError

__all__ = [
    "PRIMARY_ENTRY_BITS",
    "SECONDARY_ENTRY_BITS",
    "fanout_for",
    "PrimaryEntry",
    "PrimaryBlock",
    "SecondaryEntry",
    "SecondaryBlock",
    "HeaderBlock",
    "StrandIndex",
]

#: Bits per primary-index entry: sector + sectorCount (Fig. 6).
PRIMARY_ENTRY_BITS = 64
#: Bits per secondary-index entry: startBlock + BlockCount + sector +
#: sectorCount (Fig. 6).
SECONDARY_ENTRY_BITS = 128


def fanout_for(block_bits: float, entry_bits: int) -> int:
    """Entries that fit in one index block of *block_bits*."""
    if block_bits <= 0:
        raise ParameterError(f"block_bits must be positive, got {block_bits}")
    if entry_bits <= 0:
        raise ParameterError(f"entry_bits must be positive, got {entry_bits}")
    fanout = int(block_bits // entry_bits)
    if fanout < 1:
        raise ParameterError(
            f"index block of {block_bits} bits cannot hold a "
            f"{entry_bits}-bit entry"
        )
    return fanout


@dataclass(frozen=True)
class PrimaryEntry:
    """One media block's raw disk address: position + length (Fig. 6)."""

    sector: int
    sector_count: int

    def __post_init__(self) -> None:
        if self.sector < 0:
            raise ParameterError(f"sector must be >= 0, got {self.sector}")
        if self.sector_count < 1:
            raise ParameterError(f"sector_count must be >= 1, got {self.sector_count}")


@dataclass
class PrimaryBlock:
    """Up to ``primary_fanout`` media-block start sectors (None = silence
    holder), and the disk slot holding the PB once assigned."""

    entries: List[Optional[int]] = field(default_factory=list)
    slot: Optional[int] = None


@dataclass(frozen=True)
class SecondaryEntry:
    """Pointer to one primary block (Fig. 6)."""

    start_block: int
    block_count: int
    sector: int
    sector_count: int


@dataclass
class SecondaryBlock:
    """Up to ``secondary_fanout`` pointers to primary blocks, and the
    disk slot holding the SB once assigned."""

    entries: List[SecondaryEntry] = field(default_factory=list)
    slot: Optional[int] = None


@dataclass
class HeaderBlock:
    """Strand header: rate, counts, and the secondary-block array (Fig. 6)."""

    frame_rate: float
    frame_count: int = 0
    secondary_slots: List[Optional[int]] = field(default_factory=list)
    slot: Optional[int] = None


class StrandIndex:
    """The assembled 3-level index of one strand.

    Parameters
    ----------
    frame_rate:
        Recording rate stored in the header block.
    primary_fanout / secondary_fanout:
        Entries per PB / SB, normally from :func:`fanout_for`.
    """

    def __init__(
        self,
        frame_rate: float,
        primary_fanout: int,
        secondary_fanout: int,
    ):
        if frame_rate <= 0:
            raise ParameterError(f"frame_rate must be positive, got {frame_rate}")
        if primary_fanout < 1 or secondary_fanout < 1:
            raise ParameterError(
                "fan-outs must be >= 1, got "
                f"{primary_fanout}/{secondary_fanout}"
            )
        self.primary_fanout = primary_fanout
        self.secondary_fanout = secondary_fanout
        self.header = HeaderBlock(frame_rate=frame_rate)
        #: Sectors every media block of the strand spans (Fig. 6's
        #: sectorCount, the same in each primary entry).
        self.sector_count = 1
        self.primaries: List[PrimaryBlock] = []
        self.secondaries: List[SecondaryBlock] = []

    # -- construction --------------------------------------------------------

    def extend(
        self,
        entries: Sequence[Optional[int]],
        sector_count: int,
        units: int = 0,
    ) -> None:
        """Record the next media blocks' start sectors, in block order.

        A ``None`` entry is a silence delay holder; every stored block
        spans *sector_count* sectors, the same in each call.  *units*
        (the frames or samples the blocks represent — for silence, the
        samples the silent period covers) accumulates into the header's
        frame count.  Each primary block touched takes its share as one
        slice, and its secondary entry is written once.
        """
        if units < 0:
            raise ParameterError(f"units must be >= 0, got {units}")
        if sector_count < 1 or self.primaries and sector_count != self.sector_count:
            raise ParameterError(
                f"an index of {self.sector_count}-sector blocks given {sector_count}"
            )
        self.sector_count = sector_count
        done = 0
        while done < len(entries):
            if self.primaries and (
                len(self.primaries[-1].entries) < self.primary_fanout
            ):
                primary = self.primaries[-1]
                last = self.secondaries[-1].entries.pop()
                pb_sector, pb_sector_count = last.sector, last.sector_count
            else:
                if not self.secondaries or (
                    len(self.secondaries[-1].entries) >= self.secondary_fanout
                ):
                    self.secondaries.append(SecondaryBlock())
                    self.header.secondary_slots.append(None)
                primary = PrimaryBlock()
                self.primaries.append(primary)
                pb_sector, pb_sector_count = -1, 0
            room = self.primary_fanout - len(primary.entries)
            primary.entries += entries[done:done + room]
            done += room
            self.secondaries[-1].entries.append(SecondaryEntry(
                start_block=(len(self.primaries) - 1) * self.primary_fanout,
                block_count=len(primary.entries),
                sector=pb_sector, sector_count=pb_sector_count,
            ))
        self.header.frame_count += units

    # -- lookup ----------------------------------------------------------------

    @property
    def block_count(self) -> int:
        """Media blocks (including silence holders) indexed so far."""
        if not self.primaries:
            return 0
        return (
            (len(self.primaries) - 1) * self.primary_fanout
            + len(self.primaries[-1].entries)
        )

    def _locate(self, block_number: int):
        """The primary block holding *block_number*, and its offset there:
        immutable strands fill their primary blocks uniformly, so the
        position is pure arithmetic — no tree walk."""
        if not 0 <= block_number < self.block_count:
            raise ParameterError(
                f"block {block_number} outside strand "
                f"(0..{self.block_count - 1})"
            )
        primary, offset = divmod(block_number, self.primary_fanout)
        return self.primaries[primary].entries, offset

    def lookup(self, block_number: int) -> Optional[PrimaryEntry]:
        """Resolve a media block number to its disk address (None=silence)."""
        entries, offset = self._locate(block_number)
        sector = entries[offset]
        return None if sector is None else PrimaryEntry(
            sector, self.sector_count
        )

    def update(
        self, block_number: int, entry: Optional[PrimaryEntry]
    ) -> None:
        """Rewrite one media block's address (physical migration).

        Used by storage reorganization (§6.2): the *logical* strand is
        immutable, but its blocks may be moved on disk, which rewrites
        the corresponding primary entry in place.
        """
        if entry is not None and entry.sector_count != self.sector_count:
            raise ParameterError(
                f"{entry} in an index of {self.sector_count}-sector blocks"
            )
        entries, offset = self._locate(block_number)
        entries[offset] = None if entry is None else entry.sector

    def __iter__(self) -> Iterator[Optional[PrimaryEntry]]:
        return map(self.lookup, range(self.block_count))

    # -- disk residence ----------------------------------------------------------

    def index_block_count(self) -> int:
        """Disk blocks the index itself occupies (HB + SBs + PBs)."""
        return 1 + len(self.secondaries) + len(self.primaries)

    def assign_slots(self, slots: List[int]) -> None:
        """Bind the header, secondary, and primary blocks to disk slots.

        *slots* must contain exactly :meth:`index_block_count` entries, in
        HB, SB..., PB... order.
        """
        needed = self.index_block_count()
        if len(slots) != needed:
            raise ParameterError(f"index needs {needed} slots, got {len(slots)}")
        cursor = iter(slots)
        self.header.slot = next(cursor)
        for position, secondary in enumerate(self.secondaries):
            secondary.slot = next(cursor)
            self.header.secondary_slots[position] = secondary.slot
        for primary in self.primaries:
            primary.slot = next(cursor)
        # Back-fill PB addresses into the secondary entries.
        for secondary in self.secondaries:
            for position, entry in enumerate(secondary.entries):
                primary = self.primaries[entry.start_block // self.primary_fanout]
                secondary.entries[position] = SecondaryEntry(
                    start_block=entry.start_block,
                    block_count=entry.block_count,
                    sector=primary.slot if primary.slot is not None else -1,
                    sector_count=1,
                )

    def assigned_slots(self) -> List[int]:
        """All disk slots the index occupies (for deletion)."""
        blocks = [self.header, *self.secondaries, *self.primaries]
        return [block.slot for block in blocks if block.slot is not None]

    # -- verification -----------------------------------------------------------

    def verify(self) -> None:
        """Check internal consistency; raises IndexCorruptionError."""
        if len(self.header.secondary_slots) != len(self.secondaries):
            raise IndexCorruptionError(
                "header secondary array length "
                f"{len(self.header.secondary_slots)} != secondary block "
                f"count {len(self.secondaries)}"
            )
        covered = 0
        for number, secondary in enumerate(self.secondaries):
            if not secondary.entries:
                raise IndexCorruptionError(f"secondary block {number} is empty")
            for entry in secondary.entries:
                if entry.start_block != covered:
                    raise IndexCorruptionError(
                        f"secondary entry starts at block {entry.start_block}"
                        f", expected {covered}"
                    )
                covered += entry.block_count
        if covered != self.block_count:
            raise IndexCorruptionError(
                f"secondary entries cover {covered} blocks, index holds "
                f"{self.block_count}"
            )
        for number, primary in enumerate(self.primaries[:-1]):
            if len(primary.entries) != self.primary_fanout:
                raise IndexCorruptionError(
                    f"interior primary block {number} holds "
                    f"{len(primary.entries)} entries, expected a full "
                    f"{self.primary_fanout}"
                )
