"""Strands: immutable sequences of continuously recorded media (§2).

"Strand is an immutable sequence of continuously recorded audio samples or
video frames.  Immutability of strands is necessary to simplify the
process of garbage collection."

A :class:`Strand` couples three things:

* the **content** of its media blocks (:class:`repro.fs.blocks.MediaBlock`
  per block number; silence-eliminated audio blocks have no content),
* the **placement** of those blocks on disk (a slot per block; silence
  holders have none),
* the **3-level index** (:class:`repro.fs.index.StrandIndex`) mapping
  block numbers to raw disk addresses, with NULL entries for silence.

A strand under recording takes its blocks in bulk (:meth:`extend`);
:meth:`finalize` freezes it.  Every later mutation attempt raises
:class:`~repro.errors.StrandImmutableError` — rope editing never touches
strand contents, it only builds new interval lists (§4).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import ParameterError, StrandImmutableError
from repro.fs.blocks import BlockKind, MediaBlock
from repro.fs.index import PrimaryEntry, StrandIndex

__all__ = ["Strand"]


class Strand:
    """One immutable media strand and its on-disk layout.

    Parameters
    ----------
    strand_id:
        Unique identifier assigned by the storage manager.
    kind:
        VIDEO, AUDIO, or MIXED.
    unit_rate:
        Frames/s (video) or samples/s (audio) — the recording rate.
    granularity:
        Units per block (η) this strand was stored with.
    sectors_per_block:
        Disk sectors per block slot, for index-entry construction.
    index:
        The strand's 3-level index (owned by this strand).
    scattering_lower / scattering_upper:
        The placement-policy bounds this strand's blocks honour; the
        editing layer reads them for the §4.2 copy bounds.
    """

    def __init__(
        self,
        strand_id: str,
        kind: BlockKind,
        unit_rate: float,
        granularity: int,
        sectors_per_block: int,
        index: StrandIndex,
        scattering_lower: float = 0.0,
        scattering_upper: float = float("inf"),
    ):
        if kind not in (BlockKind.VIDEO, BlockKind.AUDIO, BlockKind.MIXED):
            raise ParameterError(f"strands hold media, not {kind}")
        if unit_rate <= 0:
            raise ParameterError(
                f"unit_rate must be positive, got {unit_rate}"
            )
        if granularity < 1:
            raise ParameterError(
                f"granularity must be >= 1, got {granularity}"
            )
        if sectors_per_block < 1:
            raise ParameterError(
                f"sectors_per_block must be >= 1, got {sectors_per_block}"
            )
        self.strand_id = strand_id
        self.kind = kind
        self.unit_rate = unit_rate
        self.granularity = granularity
        self.sectors_per_block = sectors_per_block
        self.index = index
        self.scattering_lower = scattering_lower
        self.scattering_upper = scattering_upper
        self._contents: Dict[int, MediaBlock] = {}
        self._slots: List[Optional[int]] = []
        self._block_units: List[int] = []
        self._block_bits: List[float] = []
        self._block_tokens: List[Tuple[str, ...]] = []
        self._units: int = 0
        self._finalized = False

    # -- recording-time mutation -----------------------------------------------

    def _check_mutable(self) -> None:
        if self._finalized:
            raise StrandImmutableError(
                f"strand {self.strand_id} is finalized; strands are "
                "immutable — edit at the rope layer instead"
            )

    def extend(
        self,
        contents: Sequence[Union[MediaBlock, int]],
        slots: Sequence[int],
    ) -> None:
        """Append a recording in playback order: a :class:`MediaBlock` per
        stored block, placed at the next of *slots*, and an int (units
        covered) per NULL silence holder."""
        self._check_mutable()
        silences = [item for item in contents if isinstance(item, int)]
        if silences and self.kind is BlockKind.VIDEO:
            raise ParameterError("video strands have no silence holders")
        if min(silences, default=1) < 1:
            raise ParameterError(f"units must be >= 1, got {min(silences)}")
        if min(slots, default=0) < 0:
            raise ParameterError(f"slot must be >= 0, got {min(slots)}")
        if len(slots) != len(contents) - len(silences):
            raise ParameterError(f"{len(slots)} slots for the stored blocks")
        audio, placed = self.kind is BlockKind.AUDIO, iter(slots)
        spb, entries, first = self.sectors_per_block, [], len(self._slots)
        for number, item in enumerate(contents, first):
            if isinstance(item, int):
                slot, units, bits, tokens, entry = None, item, 0.0, (), None
            else:
                slot = next(placed)
                units = item.sample_count if audio else len(item.video_tokens)
                bits, tokens = item.payload_bits, item.video_tokens
                entry = PrimaryEntry(slot * spb, spb)  # (sector, sector_count)
                self._contents[number] = item
            self._slots.append(slot)
            self._block_units.append(units)
            self._block_bits.append(bits)
            self._block_tokens.append(tokens)
            entries.append(entry)
        units = sum(self._block_units[first:])
        self.index.extend(entries, units=units)
        self._units += units

    def finalize(self) -> "Strand":
        """Freeze the strand; a later :meth:`extend` raises.  Returns self."""
        self._finalized = True
        return self

    def relocate_block(self, block_number: int, new_slot: int) -> None:
        """Move a stored block to a new disk slot (physical migration).

        Storage reorganization (§6.2) is allowed on finalized strands:
        immutability protects the *logical* media sequence, not the
        physical addresses.  The 3-level index is rewritten to match.
        The caller (``msm.relocate_strand``) owns free-map bookkeeping.
        """
        current = self.slot_of(block_number)
        if current is None:
            raise ParameterError(
                f"block {block_number} is a silence holder; nothing to move"
            )
        if new_slot < 0:
            raise ParameterError(f"new_slot must be >= 0, got {new_slot}")
        self._slots[block_number] = new_slot
        self.index.update(
            block_number,
            PrimaryEntry(
                sector=new_slot * self.sectors_per_block,
                sector_count=self.sectors_per_block,
            ),
        )

    # -- read access ----------------------------------------------------------

    @property
    def is_finalized(self) -> bool:
        """True once recording completed."""
        return self._finalized

    @property
    def block_count(self) -> int:
        """Blocks including silence holders."""
        return len(self._slots)

    @property
    def stored_block_count(self) -> int:
        """Blocks that actually occupy disk slots."""
        return sum(1 for slot in self._slots if slot is not None)

    @property
    def unit_count(self) -> int:
        """Total frames/samples, including silence-covered samples."""
        return self._units

    @property
    def duration(self) -> float:
        """Playback length in seconds."""
        return self._units / self.unit_rate

    @property
    def stored_bits(self) -> float:
        """Total payload bits on disk."""
        return sum(block.payload_bits for block in self._contents.values())

    @property
    def block_playback_duration(self) -> float:
        """Nominal playback duration of one full block (η/R)."""
        return self.granularity / self.unit_rate

    def slot_of(self, block_number: int) -> Optional[int]:
        """Disk slot of a block (None = silence holder)."""
        if not 0 <= block_number < len(self._slots):
            raise ParameterError(
                f"block {block_number} outside strand "
                f"(0..{len(self._slots) - 1})"
            )
        return self._slots[block_number]

    def block_at(self, block_number: int) -> Optional[MediaBlock]:
        """Content of a block (None = silence holder)."""
        self.slot_of(block_number)  # bounds check
        return self._contents.get(block_number)

    def units_of(self, block_number: int) -> int:
        """Frames/samples a block covers (silence holders included)."""
        self.slot_of(block_number)  # bounds check
        return self._block_units[block_number]

    def columns(self, first: int, last: int) -> Tuple[list, list, list, list]:
        """Blocks *first*..*last* as parallel lists: slot (None = silence
        holder), payload bits (0.0 for silence), units, video tokens.

        The playback planner's view of the strand: one slice per column,
        no per-block lookup.
        """
        self.slot_of(first)  # bounds checks
        self.slot_of(last)
        span = slice(first, last + 1)
        return (
            self._slots[span], self._block_bits[span],
            self._block_units[span], self._block_tokens[span],
        )

    def slots(self) -> List[int]:
        """All occupied media slots, in block order (silences skipped)."""
        return [slot for slot in self._slots if slot is not None]

    def blocks(self) -> Iterator[Tuple[int, Optional[MediaBlock]]]:
        """Iterate ``(block_number, content-or-None)`` in playback order."""
        for number in range(len(self._slots)):
            yield number, self._contents.get(number)

    def verify_against_index(self) -> None:
        """Cross-check placement against the index (test/debug aid)."""
        self.index.verify()
        if self.index.block_count != self.block_count:
            raise ParameterError(
                f"index holds {self.index.block_count} blocks, strand "
                f"placement holds {self.block_count}"
            )
        for number, slot in enumerate(self._slots):
            entry = self.index.lookup(number)
            if slot is None:
                if entry is not None:
                    raise ParameterError(
                        f"block {number}: silence in placement but indexed "
                        f"at sector {entry.sector}"
                    )
            else:
                if entry is None:
                    raise ParameterError(
                        f"block {number}: placed at slot {slot} but index "
                        "holds a NULL silence entry"
                    )
                if entry.sector != slot * self.sectors_per_block:
                    raise ParameterError(
                        f"block {number}: slot {slot} disagrees with "
                        f"indexed sector {entry.sector}"
                    )
