"""Free-space management over fixed-size block slots.

The Multimedia Storage Manager divides the disk into equal block slots
(one media/index block per slot) and tracks their allocation state here.
The map supports the lookups each §3 allocator needs:

* window scans (first free slot within a slot range) for the
  constrained-scatter allocator,
* run scans (contiguous stretch of free slots) for the contiguous
  baseline,
* uniform random picks for the unconstrained baseline,
* occupancy, for choosing between the sparse/dense copy bounds of §4.2.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, List, Optional

from repro.errors import AllocationError, DiskFullError, ParameterError

__all__ = ["FreeMap"]

_FREE = 0
_USED = 1


class FreeMap:
    """Allocation bitmap over *slots* block slots."""

    def __init__(self, slots: int):
        if slots < 1:
            raise ParameterError(f"slots must be >= 1, got {slots}")
        self._state = bytearray(slots)  # _FREE / _USED per slot
        self._free_count = slots

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._state)

    @property
    def slots(self) -> int:
        """Total slot count."""
        return len(self._state)

    @property
    def free_count(self) -> int:
        """Slots currently free."""
        return self._free_count

    @property
    def used_count(self) -> int:
        """Slots currently allocated."""
        return len(self._state) - self._free_count

    @property
    def occupancy(self) -> float:
        """Fraction of slots in use, in [0, 1]."""
        return self.used_count / len(self._state)

    def is_free(self, slot: int) -> bool:
        """True when *slot* is unallocated."""
        self._check(slot)
        return self._state[slot] == _FREE

    def _check(self, slot: int) -> None:
        if not 0 <= slot < len(self._state):
            raise ParameterError(
                f"slot {slot} outside map (0..{len(self._state) - 1})"
            )

    # -- mutation ----------------------------------------------------------

    def allocate(self, slot: int) -> None:
        """Mark *slot* used; it must currently be free."""
        self._check(slot)
        if self._state[slot] == _USED:
            raise AllocationError(f"slot {slot} is already allocated")
        self._state[slot] = _USED
        self._free_count -= 1

    def release(self, slot: int) -> None:
        """Mark *slot* free; it must currently be used."""
        self._check(slot)
        if self._state[slot] == _FREE:
            raise AllocationError(f"slot {slot} is already free")
        self._state[slot] = _FREE
        self._free_count += 1

    def claim(self, slots: Iterable[int]) -> None:
        """Mark exactly *slots* used — all of them, or none.

        For callers that already know which slots they own (a repair
        plan, a strand moving back, a loaded image).  A slot outside the
        map, already allocated, or named twice raises; nothing stays
        taken.
        """
        taken: List[int] = []
        try:
            for slot in slots:
                self.allocate(slot)
                taken.append(slot)
        except (AllocationError, ParameterError):
            for slot in taken:
                self.release(slot)
            raise

    # -- queries for the allocators ----------------------------------------

    def free_in_window(self, start: int, stop: int) -> Iterator[int]:
        """Yield free slots in ``[start, stop)`` in ascending order.

        The window is clamped to the map; an inverted window yields
        nothing.
        """
        lo = max(0, start)
        hi = min(len(self._state), stop)
        state = self._state
        for slot in range(lo, hi):
            if state[slot] == _FREE:
                yield slot

    def first_free_in_window(self, start: int, stop: int) -> Optional[int]:
        """First free slot in ``[start, stop)``, or None."""
        return next(self.free_in_window(start, stop), None)

    def last_free_in_window(self, start: int, stop: int) -> Optional[int]:
        """Last free slot in ``[start, stop)``, or None."""
        lo = max(0, start)
        hi = min(len(self._state), stop)
        state = self._state
        for slot in range(hi - 1, lo - 1, -1):
            if state[slot] == _FREE:
                return slot
        return None

    def find_run(self, length: int, start: int = 0) -> Optional[int]:
        """First index of *length* consecutive free slots at/after *start*.

        Returns None when no such run exists (the contiguous allocator's
        fragmentation failure mode).
        """
        if length < 1:
            raise ParameterError(f"run length must be >= 1, got {length}")
        state = self._state
        run = 0
        for slot in range(max(0, start), len(state)):
            if state[slot] == _FREE:
                run += 1
                if run == length:
                    return slot - length + 1
            else:
                run = 0
        return None

    def random_free(self, rng: random.Random) -> int:
        """A uniformly random free slot (the §3 'random allocation' baseline).

        Raises :class:`DiskFullError` when nothing is free.
        """
        if self._free_count == 0:
            raise DiskFullError("no free slots")
        # Resampling is fast while occupancy is moderate; fall back to an
        # explicit scan when the disk is nearly full.
        state = self._state
        total = len(state)
        if self._free_count * 4 >= total:
            while True:
                slot = rng.randrange(total)
                if state[slot] == _FREE:
                    return slot
        candidates = [slot for slot in range(total) if state[slot] == _FREE]
        return rng.choice(candidates)

    def free_slots(self) -> List[int]:
        """All free slots, ascending (for diagnostics and tests)."""
        return [s for s in range(len(self._state)) if self._state[s] == _FREE]

    def used_slots(self) -> List[int]:
        """All used slots, ascending."""
        return [s for s in range(len(self._state)) if self._state[s] == _USED]
