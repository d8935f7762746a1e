"""A bounded LRU block cache between the service loop and the drive.

*Scalable Distributed Video-on-Demand* (Viennot et al.) identifies the
key lever for serving many viewers of the same content: one physical
read should feed many streams.  :class:`BlockCache` is the mechanism —
a bounded LRU over disk slots — and :class:`CachedDrive` is the
placement: a drive-shaped wrapper the round-robin service reads through,
so a slot already resident costs no mechanism time (the memory copy is
below this model's granularity) while a miss pays the full simulated
seek + rotation + transfer of the inner drive.

Like the :class:`~repro.disk.drive.SimulatedDrive` itself, the cache
holds no data bytes — residency is the cached fact.  Correctness under
fault injection is by construction: a faulted access raises *before*
the slot is inserted, so defective or transiently-failing reads never
populate the cache, and a :class:`~repro.errors.MediaDefectError`
additionally invalidates any stale residency for its slot.  A write
*through* :class:`CachedDrive` invalidates the written slot, but the
storage manager writes no slot through the cache, and nothing tells the
cache when it frees one: residency survives a slot's free and its reuse
by a new recording (ROADMAP small debt, "a freed slot stays
cache-resident").

Pinning supports cache-aware admission: a session admitted against
cache residency (its whole plan resident ⇒ it consumes no disk-round
budget) pins its slots so LRU pressure from other streams cannot evict
the blocks its continuity guarantee now depends on.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, Optional

from repro.disk.drive import SimulatedDrive
from repro.errors import MediaDefectError, ParameterError, check_count
from repro.obs.recorder import recorder_for

__all__ = ["CacheStats", "BlockCache", "CachedDrive"]


@dataclass
class CacheStats:
    """Running counters for one cache."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    invalidations: int = 0
    pin_failures: int = 0

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups served from residency."""
        lookups = self.hits + self.misses
        if not lookups:
            return 0.0
        return self.hits / lookups

    def as_dict(self) -> Dict[str, int]:
        """JSON-ready counter mapping."""
        return asdict(self)


class BlockCache:
    """Bounded LRU residency set over disk slots, with pinning.

    Parameters
    ----------
    capacity_blocks:
        Maximum resident slots.  Insertion beyond capacity evicts the
        least-recently-used *unpinned* slot; when every resident slot is
        pinned the insertion is refused instead (the new block simply
        stays uncached — correct, just slower).
    """

    def __init__(self, capacity_blocks: int):
        check_count("capacity_blocks", capacity_blocks)
        self.capacity = capacity_blocks
        self.stats = CacheStats()
        #: slot -> None, in LRU order (oldest first).
        self._resident: "OrderedDict[int, None]" = OrderedDict()
        #: slot -> pin count.
        self._pins: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._resident)

    def __contains__(self, slot: int) -> bool:
        return slot in self._resident

    @property
    def pinned_count(self) -> int:
        """Slots currently pinned."""
        return len(self._pins)

    def lookup(self, slot: int) -> bool:
        """Check residency, counting a hit/miss and refreshing LRU order."""
        if slot in self._resident:
            self._resident.move_to_end(slot)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def insert(self, slot: int) -> bool:
        """Make *slot* resident; returns False if pins block the insert."""
        if slot in self._resident:
            self._resident.move_to_end(slot)
            return True
        while len(self._resident) >= self.capacity:
            victim = next(
                (held for held in self._resident if held not in self._pins),
                None,
            )
            if victim is None:
                return False
            del self._resident[victim]
            self.stats.evictions += 1
        self._resident[slot] = None
        self.stats.insertions += 1
        return True

    def invalidate(self, slot: int) -> None:
        """Drop residency for *slot* (no-op when absent).  Pins stay —
        a pinned invalidated slot will re-pin on its next insert."""
        was_resident = slot in self._resident
        if was_resident:
            del self._resident[slot]
        if was_resident or slot in self._pins:
            self.stats.invalidations += 1

    def pin(self, slots: Iterable[int]) -> bool:
        """Pin *slots* against eviction; all-or-nothing.

        Every slot must already be resident and the pin set must leave
        at least one unpinned slot of headroom only if capacity demands
        it — pinning the whole cache is allowed (inserts then refuse).
        Returns False (and pins nothing) when any slot is not resident.
        """
        wanted = list(slots)
        if any(slot not in self._resident for slot in wanted):
            self.stats.pin_failures += 1
            return False
        for slot in wanted:
            self._pins[slot] = self._pins.get(slot, 0) + 1
        return True

    def unpin(self, slots: Iterable[int]) -> None:
        """Release one pin reference per slot (absent slots ignored)."""
        for slot in slots:
            count = self._pins.get(slot)
            if count is None:
                continue
            if count <= 1:
                del self._pins[slot]
            else:
                self._pins[slot] = count - 1

    def resident_fraction(self, slots: Iterable[int]) -> float:
        """Fraction of *slots* currently resident (1.0 for empty input).

        A pure query — no hit/miss accounting, no LRU refresh — used by
        cache-aware admission to size a candidate's disk load.
        """
        wanted = [slot for slot in slots if slot is not None]
        if not wanted:
            return 1.0
        resident = sum(1 for slot in wanted if slot in self._resident)
        return resident / len(wanted)


class CachedDrive:
    """A drive-shaped LRU front end over one :class:`SimulatedDrive`.

    Exposes the access surface the service layers use (``read_slot`` /
    ``traced_read`` / ``write_slot`` / ``injector`` / ``stats``), so it drops
    into :class:`~repro.service.rounds.RoundRobinService` and
    :func:`~repro.faults.recovery.read_with_recovery` unchanged.  A hit
    costs ``hit_time`` seconds (default 0.0 — no disk-round budget); a
    miss delegates to the inner mechanism and, on success, makes the
    slot resident.  Faulted accesses propagate without populating the
    cache, and a media defect invalidates the slot defensively.
    """

    def __init__(
        self,
        inner: SimulatedDrive,
        cache: BlockCache,
        hit_time: float = 0.0,
        obs=None,
    ):
        if hit_time < 0:
            raise ParameterError(
                f"hit_time must be >= 0, got {hit_time}"
            )
        self.inner = inner
        self.cache = cache
        self.hit_time = hit_time
        # The inner drive's fixed surface, bound once: its counters, block
        # size and count, and the methods that install or derive on it.
        self.stats = inner.stats
        self.block_bits, self.slots = inner.block_bits, inner.slots
        self.attach_injector = inner.attach_injector
        self.attach_observer = inner.attach_observer
        self.parameters = inner.parameters
        self.attach_cache_observer(obs)

    def attach_cache_observer(self, obs) -> None:
        """Hand this front end to *obs*'s service recorder, which reads the
        probes and evictions off :class:`CacheStats` from now on."""
        rec = recorder_for(obs, "cache")
        if rec is not None:
            rec.cache_attached(self)

    # -- drive surface proxied to the inner mechanism -------------------------

    @property
    def injector(self):
        """The inner drive's fault injector (service layers key off it)."""
        return self.inner.injector

    @property
    def observed(self) -> bool:
        """Whether the inner drive has an enabled observer attached."""
        return self.inner.observed

    # -- cached accesses -------------------------------------------------------

    def read_slot(self, slot: int, bits: Optional[float] = None) -> float:
        """Read through the cache; returns elapsed simulated seconds.

        This is the per-block path, so it is :meth:`BlockCache.lookup`,
        the inner read and :meth:`BlockCache.insert` written out in one
        frame (the insert is called only when a pin may block it): the
        same counters and LRU order.  It reports nothing: an observer
        reads the counters.
        """
        cache = self.cache
        resident, stats = cache._resident, cache.stats
        if slot in resident:
            resident.move_to_end(slot)
            stats.hits += 1
            return self.hit_time
        stats.misses += 1
        try:
            duration = self.inner.read_slot(slot, bits)
        except MediaDefectError:
            # The media is bad: any stale residency for the slot must go
            # (data cached before the defect surfaced may predate it).
            cache.invalidate(slot)
            raise
        if len(resident) < cache.capacity:
            resident[slot] = None
            stats.insertions += 1
        elif cache._pins:
            cache.insert(slot)
        else:
            resident.popitem(last=False)
            resident[slot] = None
            stats.evictions += 1
            stats.insertions += 1
        return duration

    def traced_read(
        self, slot: int, bits: Optional[float], now: float, rec, parent
    ) -> float:
        """:meth:`read_slot` as a traced access under *parent*.

        The access is reported to *rec* (the caller's service recorder):
        a hit closes it with status ``hit`` after ``hit_time`` seconds; a
        miss nests the inner drive's traced read under it and closes with
        status ``miss``; a fault closes it at the time the doomed attempt
        consumed (``defect``, or the fault's type name) and propagates.
        """
        cache = self.cache
        span = rec.cache_read(now, parent, slot)
        if cache.lookup(slot):
            rec.span_end(span, now + self.hit_time, "hit")
            return self.hit_time
        below = span if span is not None else parent
        try:
            duration = self.inner.traced_read(slot, bits, now, rec, below)
        except Exception as fault:
            defect = isinstance(fault, MediaDefectError)
            if defect:
                cache.invalidate(slot)
            rec.span_end(
                span, now + getattr(fault, "elapsed", 0.0),
                "defect" if defect else type(fault).__name__,
            )
            raise
        cache.insert(slot)
        rec.span_end(span, now + duration, "miss")
        return duration

    def write_slot(self, slot: int, bits: Optional[float] = None) -> float:
        """Write through to the mechanism, invalidating residency."""
        self.cache.invalidate(slot)
        return self.inner.write_slot(slot, bits)
