"""Storage reorganization for densely utilized disks (§6.2 future work).

"Constrained scattering of blocks of a media strand can be difficult to
achieve when the disk is densely utilized.  When it becomes impossible to
place new media strands in such a way that their scattering bounds are
satisfied, the storage of existing media strands on the disk may have to
be reorganized.  Towards this end, we are investigating mechanisms for
merging multiple media strands so as to optimize storage utilization."

:class:`Reorganizer` implements that mechanism: when a trial placement
fails, existing strands are migrated one at a time into fresh, compact
constrained placements (sweeping from the low end of the disk), which
coalesces the scattered free slots into a contiguous high region where
new strands fit again.  The migration itself — returning a strand's
slots, re-placing them, claiming the old ones back on failure — is the
storage manager's (:meth:`MultimediaStorageManager.relocate_strand`);
this module decides which strand goes where, and when to stop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.disk.allocation import ConstrainedScatterAllocator, ScatterBounds
from repro.errors import AllocationError, DiskFullError
from repro.fs.storage_manager import MultimediaStorageManager

__all__ = ["ReorganizationReport", "Reorganizer"]


@dataclass(frozen=True)
class ReorganizationReport:
    """Outcome of a make-room pass."""

    success: bool
    strands_migrated: int
    blocks_moved: int
    trial_blocks: int

    @property
    def moved_anything(self) -> bool:
        """True when at least one block changed position."""
        return self.blocks_moved > 0


class Reorganizer:
    """Migrates strands to restore scattering-feasible free space."""

    def __init__(self, msm: MultimediaStorageManager):
        self.msm = msm

    # -- feasibility probing -----------------------------------------------------

    def placement_feasible(
        self, block_count: int, bounds: Optional[ScatterBounds] = None
    ) -> bool:
        """Can a *block_count*-block strand be placed right now?

        Runs a trial allocation against the live free map and rolls it
        back; nothing is stored.
        """
        if bounds is None:
            policy = self.msm.policies.video
            bounds = ScatterBounds(
                policy.scattering_lower, policy.scattering_upper
            )
        allocator = ConstrainedScatterAllocator(
            self.msm.drive, self.msm.freemap, bounds
        )
        try:
            slots = allocator.allocate_strand(block_count)
        except (AllocationError, DiskFullError):
            return False
        allocator.release(slots)
        return True

    # -- migration -----------------------------------------------------------------

    def make_room(
        self,
        block_count: int,
        bounds: Optional[ScatterBounds] = None,
    ) -> ReorganizationReport:
        """Reorganize until a *block_count*-block placement fits.

        Strands are migrated in ID order, each packed immediately after
        the previous one from the low end of the disk; after each
        migration the trial placement is retried.  Index blocks are not
        moved (they have no real-time constraint).
        """
        feasible = self.placement_feasible(block_count, bounds)
        migrated = moved = hint = 0
        for strand_id in self.msm.strand_ids():
            if feasible:
                break
            moved_here = self.msm.relocate_strand(strand_id, hint)
            slots = self.msm.get_strand(strand_id).slots()
            if slots:
                hint = max(slots) + 1
            if moved_here:
                migrated += 1
                moved += moved_here
            feasible = self.placement_feasible(block_count, bounds)
        return ReorganizationReport(
            success=feasible,
            strands_migrated=migrated,
            blocks_moved=moved,
            trial_blocks=block_count,
        )
