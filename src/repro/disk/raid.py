"""Multi-head disk arrays: the §3.1 concurrent architecture's substrate.

The paper's concurrent retrieval architecture assumes "disks with multiple
heads ... (such as RAIDs)" performing p accesses in parallel.
:class:`DriveArray` models that as p identical, independently seeking
mechanisms with media blocks striped across them round-robin: block i of a
strand lives on drive ``i mod p``.  :class:`StripedReads` is the one
stripe timing: it shows the array to the round loop as one drive that
reads p consecutive blocks on all members at once and lands the stripe
when the slowest finishes — exactly the timing Eq. (3) budgets for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.symbols import DiskParameters
from repro.disk.drive import SimulatedDrive
from repro.errors import DiskFaultError, ParameterError

__all__ = ["StripedSlot", "DriveArray", "StripedReads"]


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


class StripedReads:
    """The array read as one drive: Fig. 3's view of one striped plan.

    The loop names a block by its plan index: block i lives on member
    ``i mod p`` at ``slots[i]``.  A stripe's first read issues all p and
    lands when the slowest member finishes; the rest land with it.  A
    fault surfaces at its own block, and a retry re-reads that block's
    member alone — ``stats`` are that member's, so recovery counts the
    retry there — delaying the stripe only past its slowest member.
    """

    def __init__(self, array: DriveArray, slots: Sequence, bits: Sequence):
        self.members, self.slots, self.bits = array.drives, slots, bits
        self._stripe, self._outcomes = -1, {}
        self._busy, self._charged = [], 0.0
        self.stats = self.members[0].stats

    @property
    def injector(self):
        """A member's fault injector (None: no member has one)."""
        return next(filter(None, (m.injector for m in self.members)), None)

    def read_slot(self, block: int, bits: Optional[float] = None) -> float:
        """Read plan block *block*; returns how far it moved the stripe."""
        p = len(self.members)
        stripe = block // p
        if stripe != self._stripe:
            self._stripe, self._busy, self._charged = stripe, [0.0] * p, 0.0
            first = stripe * p
            self._outcomes = {
                index: self._attempt(index, self.bits[index])
                for index in range(first, min(first + p, len(self.slots)))
                if self.slots[index] is not None
            }
        outcome = self._outcomes.pop(block, None)
        if outcome is None:   # a retry
            outcome = self._attempt(block, bits)
        self.stats = self.members[block % p].stats
        elapsed = max(self._busy) - self._charged
        self._charged += elapsed
        if isinstance(outcome, DiskFaultError):
            outcome.elapsed = elapsed
            raise outcome
        return elapsed

    def _attempt(self, block: int, bits: Optional[float]):
        """One access to *block*'s member: its seconds, or its fault."""
        member = block % len(self.members)
        try:
            elapsed = outcome = self.members[member].read_slot(
                self.slots[block], bits
            )
        except DiskFaultError as fault:
            elapsed, outcome = fault.elapsed, fault
        self._busy[member] += elapsed
        return outcome
