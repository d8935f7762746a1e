"""Multi-head disk arrays: the §3.1 concurrent architecture's substrate.

The paper's concurrent retrieval architecture assumes "disks with multiple
heads ... (such as RAIDs)" performing p accesses in parallel.
:class:`DriveArray` models that as p identical, independently seeking
mechanisms with media blocks striped across them round-robin: block i of a
strand lives on drive ``i mod p``.  A *batch* read of p consecutive blocks
proceeds on all drives concurrently, so the batch completes when the
slowest member finishes — which is exactly the timing Eq. (3) budgets for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.symbols import DiskParameters
from repro.disk.drive import SimulatedDrive
from repro.errors import ParameterError

__all__ = ["StripedSlot", "DriveArray"]


@dataclass(frozen=True)
class StripedSlot:
    """Address of a block on an array: (member drive, slot on that drive)."""

    drive_index: int
    slot: int


class DriveArray:
    """p identical drives with round-robin block striping.

    Parameters
    ----------
    drives:
        The member mechanisms.  They should be configured identically;
        heterogeneous members are permitted but make Eq. (3)'s single
    ``R_dr`` an approximation.
    """

    def __init__(self, drives: Sequence[SimulatedDrive]):
        if not drives:
            raise ParameterError("DriveArray requires at least one drive")
        block_bits = {drive.block_bits for drive in drives}
        if len(block_bits) != 1:
            raise ParameterError(
                "all array members must use the same block size, got "
                f"{sorted(block_bits)}"
            )
        self.drives: List[SimulatedDrive] = list(drives)

    @property
    def heads(self) -> int:
        """Degree of concurrency p."""
        return len(self.drives)

    @property
    def block_bits(self) -> float:
        """Bits per block slot (uniform across members)."""
        return self.drives[0].block_bits

    def stripe(self, strand_block_index: int, slot: int) -> StripedSlot:
        """Map a strand's i-th block onto its member drive."""
        if strand_block_index < 0:
            raise ParameterError(
                f"strand_block_index must be >= 0, got {strand_block_index}"
            )
        return StripedSlot(
            drive_index=strand_block_index % self.heads, slot=slot
        )

    def member(self, index: int) -> SimulatedDrive:
        """The index-th member drive."""
        if not 0 <= index < self.heads:
            raise ParameterError(
                f"drive index {index} outside array (0..{self.heads - 1})"
            )
        return self.drives[index]

    def read_batch(self, addresses: Sequence[StripedSlot]) -> float:
        """Read up to p blocks concurrently; returns the batch duration.

        Each address must target a distinct member (one outstanding access
        per head); the batch takes as long as its slowest member.
        """
        if not addresses:
            return 0.0
        members = [address.drive_index for address in addresses]
        if len(set(members)) != len(members):
            raise ParameterError(
                "concurrent batch targets a member drive twice; a head "
                "serves one access at a time"
            )
        durations = [
            self.member(address.drive_index).read_slot(address.slot)
            for address in addresses
        ]
        return max(durations)

    def read_striped_run(
        self, slots: Sequence[int], first_block_index: int = 0
    ) -> Tuple[float, int]:
        """Read a run of consecutive strand blocks, batching per stripe.

        Returns ``(total_time, batches)``.  Blocks are grouped into
        stripes of p and each stripe is read concurrently; this is the
        concurrent architecture's steady-state pattern.
        """
        total = 0.0
        batches = 0
        p = self.heads
        for offset in range(0, len(slots), p):
            group = slots[offset:offset + p]
            addresses = [
                self.stripe(first_block_index + offset + j, slot)
                for j, slot in enumerate(group)
            ]
            total += self.read_batch(addresses)
            batches += 1
        return total, batches

    def parameters(self) -> DiskParameters:
        """Project the array onto the Table-1 symbols (heads = p)."""
        base = self.drives[0].parameters()
        return DiskParameters(
            transfer_rate=base.transfer_rate,
            seek_max=base.seek_max,
            seek_avg=base.seek_avg,
            seek_track=base.seek_track,
            cylinders=base.cylinders,
            heads=self.heads,
        )
