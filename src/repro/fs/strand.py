"""Strands: immutable sequences of continuously recorded media (§2).

"Strand is an immutable sequence of continuously recorded audio samples or
video frames.  Immutability of strands is necessary to simplify the
process of garbage collection."

A :class:`Strand` couples three things:

* the **content** of its media blocks, held as columns; a
  :class:`repro.fs.blocks.MediaBlock` is a view built on demand
  (silence-eliminated audio blocks have none),
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

from typing import List, Optional, Sequence, Tuple

from repro.errors import ParameterError, StrandImmutableError
from repro.fs.blocks import MEDIA_NEEDS, AudioPayload, BlockKind, MediaBlock
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
            raise ParameterError(f"unit_rate must be positive, got {unit_rate}")
        if granularity < 1:
            raise ParameterError(f"granularity must be >= 1, got {granularity}")
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
        # The columns, one entry per block: the only record of its content.
        self._slots: List[Optional[int]] = []
        self._block_units: List[int] = []
        self._block_bits: List[float] = []          # payload: video + audio
        self._block_tokens: List[Tuple[str, ...]] = []
        # Kept beside the payload: a MIXED block's video bits are not its
        # payload less its audio bits in floating point.
        self._video_bits: List[float] = []
        self._audio: List[Optional[AudioPayload]] = []
        self._finalized = False

    # -- recording-time mutation -----------------------------------------------

    def extend(
        self,
        slots: Sequence[Optional[int]],
        units: Sequence[int],
        bits: Sequence[float],
        tokens: Sequence[Tuple[str, ...]],
        audio: Optional[Sequence[Optional[AudioPayload]]] = None,
    ) -> None:
        """Append a recording in playback order, as columns with one
        entry per block: its slot (None for a NULL silence holder), the
        units (frames, or samples) it covers, its video bits, its frame
        tokens and its audio payload (*audio* None: none in any block).

        The checks a :class:`MediaBlock` makes of itself run once over
        the columns; a recording that fails one is refused whole.
        """
        if self._finalized:
            raise StrandImmutableError(
                f"strand {self.strand_id} is finalized; strands are "
                "immutable — edit at the rope layer instead"
            )
        count = len(slots)
        audio = [None] * count if audio is None else audio
        if not count == len(units) == len(bits) == len(tokens) == len(audio):
            raise ParameterError("the columns of a recording differ in length")
        if min(units, default=1) < 1:
            raise ParameterError(f"units must be >= 1, got {min(units)}")
        if min(bits, default=0.0) < 0:
            raise ParameterError(f"video_bits must be >= 0, got {min(bits)}")
        if self.kind is BlockKind.VIDEO and None in slots:
            raise ParameterError("video strands have no silence holders")
        frames_needed, audio_needed, needs = MEDIA_NEEDS[self.kind]
        for slot, covered, video, frames, payload in zip(
            slots, units, bits, tokens, audio
        ):
            if slot is None:
                if frames or video or payload:
                    raise ParameterError("a silence holder holds no media")
            elif slot < 0:
                raise ParameterError(f"slot must be >= 0, got {slot}")
            elif bool(frames) is not frames_needed or (
                bool(payload) is not audio_needed
            ):
                raise ParameterError(needs)
            elif covered != (
                len(frames) if frames_needed else payload.sample_count
            ):
                raise ParameterError(f"{covered} units for a block of other size")
        self._slots += slots
        self._block_units += units
        self._block_tokens += tokens
        self._video_bits += bits
        self._audio += audio
        self._block_bits += [
            video if payload is None else video + payload.bits
            for video, payload in zip(bits, audio)
        ]
        spb = self.sectors_per_block
        self.index.extend(
            [None if slot is None else slot * spb for slot in slots],
            spb, units=sum(units),
        )

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
        spb = self.sectors_per_block
        self.index.update(block_number, PrimaryEntry(new_slot * spb, spb))

    # -- read access ----------------------------------------------------------

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
        return self.index.header.frame_count

    @property
    def duration(self) -> float:
        """Playback length in seconds."""
        return self.unit_count / self.unit_rate

    @property
    def stored_bits(self) -> float:
        """Total payload bits on disk."""
        return sum(self._block_bits)

    def slot_of(self, block_number: int) -> Optional[int]:
        """Disk slot of a block (None = silence holder)."""
        if not 0 <= block_number < len(self._slots):
            raise ParameterError(
                f"block {block_number} outside strand "
                f"(0..{len(self._slots) - 1})"
            )
        return self._slots[block_number]

    def block_at(self, block_number: int) -> Optional[MediaBlock]:
        """Content of a block (None = silence holder): a view of the
        columns."""
        if self.slot_of(block_number) is None:
            return None
        return MediaBlock(
            self.kind, self._block_tokens[block_number],
            self._video_bits[block_number], self._audio[block_number],
        )

    def contents(self, numbers: Sequence[int]) -> List[list]:
        """The units, video bits, tokens and audio payloads of blocks
        *numbers*: the columns :meth:`extend` takes, for a copy."""
        return [
            [column[number] for number in numbers]
            for column in (
                self._block_units, self._video_bits, self._block_tokens,
                self._audio,
            )
        ]

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

    def verify_against_index(self) -> None:
        """Cross-check placement against the index (test/debug aid)."""
        self.index.verify()
        if self.index.block_count != self.block_count:
            raise ParameterError(
                f"index holds {self.index.block_count} blocks, strand "
                f"placement holds {self.block_count}"
            )
        spb = self.sectors_per_block
        for number, (slot, entry) in enumerate(zip(self._slots, self.index)):
            if entry != (None if slot is None else PrimaryEntry(slot * spb, spb)):
                raise ParameterError(
                    f"block {number}: placed at slot {slot} but indexed as "
                    f"{entry}"
                )
