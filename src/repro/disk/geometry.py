"""Disk geometry: cylinders, tracks, sectors, and address arithmetic.

The simulated drive uses classic cylinder/head/sector geometry, with
linear block addresses (LBA) assigned in the conventional order: all
sectors of a track, then the next track (head) of the same cylinder, then
the next cylinder.  Placement and seek-distance arithmetic all reduce to
the cylinder coordinate, which this module exposes for any LBA.

Above raw sectors the file system deals in fixed-size **block slots**: a
disk is divided into consecutive groups of ``sectors_per_block`` sectors,
and every media/primary/secondary/header block occupies one slot.  Slot
numbering and slot↔cylinder mapping live here too, because the
constrained-scatter allocator reasons about slots while the seek model
reasons about cylinders.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AddressError, ParameterError

__all__ = ["DiskGeometry"]


@dataclass(frozen=True)
class DiskGeometry:
    """Physical layout of a simulated drive.

    Parameters
    ----------
    cylinders:
        Number of cylinders (seek positions).
    tracks_per_cylinder:
        Number of recording surfaces (= heads on the arm).
    sectors_per_track:
        Sectors per track; all tracks are the same length (no zoning).
    sector_bits:
        Capacity of one sector, in bits (512 bytes = 4096 bits is typical).
    """

    cylinders: int
    tracks_per_cylinder: int
    sectors_per_track: int
    sector_bits: float

    def __post_init__(self) -> None:
        for name in ("cylinders", "tracks_per_cylinder", "sectors_per_track"):
            value = getattr(self, name)
            if value < 1:
                raise ParameterError(f"{name} must be >= 1, got {value}")
        if self.sector_bits <= 0:
            raise ParameterError(
                f"sector_bits must be positive, got {self.sector_bits}"
            )

    # -- capacity ----------------------------------------------------------

    @property
    def sectors_per_cylinder(self) -> int:
        """Sectors reachable without seeking."""
        return self.tracks_per_cylinder * self.sectors_per_track

    @property
    def total_sectors(self) -> int:
        """Sector count of the whole drive."""
        return self.cylinders * self.sectors_per_cylinder

    @property
    def capacity_bits(self) -> float:
        """Total raw capacity in bits."""
        return self.total_sectors * self.sector_bits

    # -- addresses ---------------------------------------------------------

    def validate_lba(self, lba: int) -> None:
        """Raise :class:`AddressError` if *lba* is outside the drive."""
        if not 0 <= lba < self.total_sectors:
            raise AddressError(
                f"LBA {lba} outside drive (0..{self.total_sectors - 1})"
            )

    def cylinder_of_lba(self, lba: int) -> int:
        """Cylinder coordinate of an LBA (the seek-relevant part)."""
        self.validate_lba(lba)
        return lba // self.sectors_per_cylinder

    # -- block slots -------------------------------------------------------

    def slots(self, sectors_per_block: int) -> int:
        """Number of whole block slots of *sectors_per_block* sectors."""
        if sectors_per_block < 1:
            raise ParameterError(
                f"sectors_per_block must be >= 1, got {sectors_per_block}"
            )
        return self.total_sectors // sectors_per_block

    def slot_to_lba(self, slot: int, sectors_per_block: int) -> int:
        """First sector of a block slot."""
        total = self.slots(sectors_per_block)
        if not 0 <= slot < total:
            raise AddressError(f"slot {slot} outside drive (0..{total - 1})")
        return slot * sectors_per_block

    def cylinder_of_slot(self, slot: int, sectors_per_block: int) -> int:
        """Cylinder holding the first sector of a block slot."""
        return self.cylinder_of_lba(self.slot_to_lba(slot, sectors_per_block))

    def slots_per_cylinder(self, sectors_per_block: int) -> float:
        """Average block slots per cylinder (may be fractional)."""
        if sectors_per_block < 1:
            raise ParameterError(
                f"sectors_per_block must be >= 1, got {sectors_per_block}"
            )
        return self.sectors_per_cylinder / sectors_per_block
