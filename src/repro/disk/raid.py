"""Multi-head disk arrays: the §3.1 concurrent architecture's substrate.

The paper's concurrent retrieval architecture assumes "disks with multiple
heads ... (such as RAIDs)" performing p accesses in parallel.
:class:`DriveArray` models that as p identical, independently seeking
mechanisms with media blocks striped across them round-robin: block i of a
strand lives on drive ``i mod p``.  The array only holds and addresses
the members: the one stripe timing is the concurrent replayer's
(:func:`repro.service.simulate_concurrent`), which reads p consecutive
blocks on all members at once and lands the stripe when the slowest
finishes — exactly the timing Eq. (3) budgets for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

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

    def member(self, index: int) -> SimulatedDrive:
        """The index-th member drive."""
        if not 0 <= index < self.heads:
            raise ParameterError(
                f"drive index {index} outside array (0..{self.heads - 1})"
            )
        return self.drives[index]

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
