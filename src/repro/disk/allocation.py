"""Block allocators: constrained-scatter, random, and contiguous.

§3 of the paper contrasts three placement disciplines for the blocks of a
media strand:

* **Random allocation** (what "most existing storage server architectures
  employ") — no bound on inter-block separation, so continuity can only be
  bought with large out-of-order buffering.
* **Contiguous allocation** — guarantees continuity but "is fraught with
  inherent problems of fragmentation and can entail enormous copying
  overheads during insertions and deletions."
* **Constrained allocation** — the paper's choice: successive blocks are
  placed so their positioning delay lies within derived bounds
  ``[l_ds_lower, l_ds_upper]``, guaranteeing continuity while leaving gaps
  that can hold other data (e.g. conventional text files).

All three are implemented against the same :class:`SimulatedDrive` +
:class:`FreeMap` pair so the experiments can compare them on identical
hardware.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.disk.drive import SimulatedDrive
from repro.disk.freemap import _FREE, _USED, FreeMap
from repro.errors import (
    AllocationError,
    DiskFullError,
    ParameterError,
    ScatteringError,
)

__all__ = [
    "ScatterBounds",
    "Allocator",
    "ConstrainedScatterAllocator",
    "RandomAllocator",
    "ContiguousAllocator",
]


@dataclass(frozen=True)
class ScatterBounds:
    """Allowed positioning delay between consecutive strand blocks.

    Attributes
    ----------
    lower:
        ``l_ds_lower`` seconds — from the §4.2 editing-copy budget
        (0 disables the constraint).
    upper:
        ``l_ds_upper`` seconds — from the §3.1 continuity requirement.
    """

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if self.lower < 0:
            raise ParameterError(f"lower bound must be >= 0, got {self.lower}")
        if self.upper < self.lower:
            raise ParameterError(
                f"upper bound {self.upper} below lower bound {self.lower}"
            )

    def admits(self, gap: float) -> bool:
        """True when a measured gap satisfies the bounds."""
        return self.lower <= gap <= self.upper


class Allocator:
    """Common interface: allocate block slots for a strand, one at a time."""

    def __init__(self, drive: SimulatedDrive, freemap: FreeMap):
        if freemap.slots != drive.slots:
            raise ParameterError(
                f"free map covers {freemap.slots} slots but drive has "
                f"{drive.slots}"
            )
        self.drive = drive
        self.freemap = freemap

    def allocate_first(self, hint: Optional[int] = None) -> int:
        """Allocate a strand's first block: the first free slot at or
        after *hint* (default slot 0), wrapping to the low end."""
        start = 0 if hint is None else hint
        slot = self.freemap.first_free_in_window(start, self.freemap.slots)
        if slot is None:
            slot = self.freemap.first_free_in_window(0, start)
        if slot is None:
            raise DiskFullError("no free slots for strand head")
        self.freemap.allocate(slot)
        return slot

    def allocate_after(self, previous: int) -> int:
        """Allocate the block following *previous* in the same strand:
        the one-hop case of the chain."""
        slots = [previous]
        self._chain(slots, 1)
        return slots[1]

    def allocate_strand(
        self, count: int, hint: Optional[int] = None
    ) -> List[int]:
        """Allocate *count* slots for a whole strand, releasing on failure."""
        if count < 1:
            raise ParameterError(f"count must be >= 1, got {count}")
        slots: List[int] = []
        try:
            slots.append(self.allocate_first(hint))
            self._chain(slots, count - 1)
        except (AllocationError, DiskFullError):
            self.release(slots)
            raise
        return slots

    def _chain(self, slots: List[int], count: int) -> None:
        """Append *count* slots to *slots*, each placed after the last; a
        hop that cannot raises, with the slots placed so far in *slots*."""
        raise NotImplementedError

    def release(self, slots: List[int]) -> None:
        """Return slots to the free map."""
        for slot in slots:
            self.freemap.release(slot)


class ConstrainedScatterAllocator(Allocator):
    """§3 constrained allocation: bounded inter-block positioning delay.

    The seconds-valued bounds are translated into a cylinder-distance
    window once, using the drive's seek curve, and the distances whose
    exact gap the bounds admit are resolved once too; each hop of a
    chain then takes the first free slot of the first of those
    cylinders (forward first, then backward) that has one.

    Parameters
    ----------
    bounds:
        The scattering window ``[l_ds_lower, l_ds_upper]``.
    """

    def __init__(
        self,
        drive: SimulatedDrive,
        freemap: FreeMap,
        bounds: ScatterBounds,
    ):
        super().__init__(drive, freemap)
        self.bounds = bounds
        rotation = drive.rotation.average_latency
        cylinders = drive.geometry.cylinders
        if bounds.upper < rotation:
            raise ScatteringError(
                f"scattering upper bound {bounds.upper:.6f} s is below the "
                f"average rotational latency {rotation:.6f} s — every "
                "access costs at least one expected rotation"
            )
        self._d_max = drive.seek_model.max_distance_within(
            bounds.upper - rotation, cylinders
        )
        self._d_min = self._min_distance(bounds.lower - rotation, cylinders)
        if self._d_min > self._d_max:
            raise ScatteringError(
                f"no cylinder distance satisfies the scattering window "
                f"[{bounds.lower:.6f}, {bounds.upper:.6f}] s on this drive"
            )
        # A gap depends on |distance| alone and never falls as it grows
        # (SeekModel's contract), so the admitted distances are one run: move
        # the closed-form window's ends onto it (a flat curve may widen it).
        near, far, gap = self._d_min, self._d_max, drive.positioning_time
        while near > 0 and bounds.admits(gap(0, near - 1)):
            near -= 1
        while far < cylinders - 1 and bounds.admits(gap(0, far + 1)):
            far += 1
        while near <= far and not bounds.admits(gap(0, near)):
            near += 1
        while far > near and not bounds.admits(gap(0, far)):
            far -= 1
        self._near, self._far = near, far
        self._last = cylinders - 1
        self._starts = drive.cylinder_starts

    def _min_distance(self, budget: float, cylinders: int) -> int:
        """Smallest distance whose seek time is >= *budget*."""
        if budget <= 0:
            return 0
        below = self.drive.seek_model.max_distance_within(
            budget, cylinders
        )
        # max_distance_within returns the largest distance with time <=
        # budget; one more cylinder crosses the threshold.  Exact equality
        # (time == budget) already satisfies a >= lower-bound check.
        seek = self.drive.seek_model.seek_time
        if below >= 0 and seek(max(below, 0)) >= budget:
            return max(below, 0)
        candidate = below + 1
        if candidate >= cylinders or seek(candidate) < budget:
            raise ScatteringError(
                f"drive cannot produce a positioning delay >= "
                f"{budget:.6f} s above rotation"
            )
        return candidate

    @property
    def distance_window(self) -> range:
        """Feasible cylinder distances (inclusive window, for tests)."""
        return range(self._d_min, self._d_max + 1)

    def _chain(self, slots: List[int], count: int) -> None:
        """Each hop scans the admitted forward cylinders first, nearest
        first (keeping strands sweeping across the disk, which is what
        bounds intra-round seeks), then the admitted backward ones,
        farthest first, and takes the first free slot other than the
        previous one — whose cylinder is the one its scan found it in.
        A hop probes and marks the free map's bitmap in place; its free
        count is settled once, when the chain ends or a hop raises.
        """
        near, far, last, starts = self._near, self._far, self._last, self._starts
        freemap, state = self.freemap, self.freemap._state
        find, append, placed = state.find, slots.append, len(slots)
        previous = slots[-1]
        center = self.drive.cylinder_of(previous)
        try:
            for _ in range(count):
                # Clamp to the disk; a conditional costs less than max/min.
                high, low = center + far, center - far
                for cylinder in range(
                    center + near, (high if high < last else last) + 1
                ):
                    stop = starts[cylinder + 1]
                    slot = find(_FREE, starts[cylinder], stop)
                    if slot == previous:
                        slot = find(_FREE, previous + 1, stop)
                    if slot >= 0:
                        break
                else:
                    for cylinder in range(
                        low if low > 0 else 0, center - near + 1
                    ):
                        stop = starts[cylinder + 1]
                        slot = find(_FREE, starts[cylinder], stop)
                        if slot == previous:
                            slot = find(_FREE, previous + 1, stop)
                        if slot >= 0:
                            break
                    else:
                        raise ScatteringError(
                            f"no free slot within the scattering window "
                            f"after slot {previous} (cylinder {center}, "
                            f"distance window [{self._d_min}, {self._d_max}])"
                        )
                state[slot] = _USED
                append(slot)
                previous, center = slot, cylinder
        finally:
            freemap._free_count -= len(slots) - placed


class RandomAllocator(Allocator):
    """Baseline: uniformly random placement (unconstrained scattering)."""

    def __init__(
        self,
        drive: SimulatedDrive,
        freemap: FreeMap,
        rng: random.Random,
    ):
        super().__init__(drive, freemap)
        if rng is None:
            raise ParameterError("RandomAllocator requires a seeded rng")
        self.rng = rng

    def allocate_first(self, hint: Optional[int] = None) -> int:
        slot = self.freemap.random_free(self.rng)
        self.freemap.allocate(slot)
        return slot

    def _chain(self, slots: List[int], count: int) -> None:
        for _ in range(count):
            slots.append(self.allocate_first())


class ContiguousAllocator(Allocator):
    """Baseline: strictly consecutive slots (a multimedia partition).

    Suffers exactly the failure mode §3 names: after interleaved
    allocate/release churn, a request for n consecutive slots can fail
    even though n free slots exist (:class:`AllocationError` with a
    fragmentation message).
    """

    def _chain(self, slots: List[int], count: int) -> None:
        for candidate in range(slots[-1] + 1, slots[-1] + 1 + count):
            if candidate >= self.freemap.slots or not self.freemap.is_free(candidate):
                raise AllocationError(
                    f"slot {candidate} after {candidate - 1} is unavailable "
                    "— contiguous run broken (fragmentation)"
                )
            self.freemap.allocate(candidate)
            slots.append(candidate)

    def allocate_strand(
        self, count: int, hint: Optional[int] = None
    ) -> List[int]:
        """Allocate a whole contiguous run, searching past fragmentation."""
        if count < 1:
            raise ParameterError(f"count must be >= 1, got {count}")
        start = self.freemap.find_run(count, 0 if hint is None else hint)
        if start is None and hint:
            start = self.freemap.find_run(count, 0)
        if start is None:
            if self.freemap.free_count >= count:
                raise AllocationError(
                    f"{self.freemap.free_count} slots free but no "
                    f"contiguous run of {count} — disk is fragmented"
                )
            raise DiskFullError(
                f"need {count} slots, only {self.freemap.free_count} free"
            )
        slots = list(range(start, start + count))
        self.freemap.claim(slots)
        return slots
