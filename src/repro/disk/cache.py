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
additionally invalidates any stale residency for its slot.  Writes go
straight through to the mechanism and invalidate the written slot.

Pinning supports cache-aware admission: a session admitted against
cache residency (its whole plan resident ⇒ it consumes no disk-round
budget) pins its slots so LRU pressure from other streams cannot evict
the blocks its continuity guarantee now depends on.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from repro.disk.drive import SimulatedDrive
from repro.errors import MediaDefectError, ParameterError
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
    def accesses(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups served from residency."""
        if not self.accesses:
            return 0.0
        return self.hits / self.accesses

    def as_dict(self) -> Dict[str, int]:
        """JSON-ready counter mapping."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "pin_failures": self.pin_failures,
        }


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
        if capacity_blocks < 1:
            raise ParameterError(
                f"capacity_blocks must be >= 1, got {capacity_blocks}"
            )
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
            victim = self._next_victim()
            if victim is None:
                return False
            del self._resident[victim]
            self.stats.evictions += 1
        self._resident[slot] = None
        self.stats.insertions += 1
        return True

    def _next_victim(self) -> Optional[int]:
        for slot in self._resident:
            if slot not in self._pins:
                return slot
        return None

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
        self.attach_cache_observer(obs)

    def attach_cache_observer(self, obs) -> None:
        """Report lookups and evictions to *obs*'s service recorder."""
        self._rec = recorder_for(obs, "cache")
        if self._rec is not None:
            self._rec.cache_attached(self)

    # -- drive surface proxied to the inner mechanism -------------------------

    @property
    def injector(self):
        """The inner drive's fault injector (service layers key off it)."""
        return self.inner.injector

    @property
    def stats(self):
        """The inner drive's mechanism counters."""
        return self.inner.stats

    @property
    def observed(self) -> bool:
        """Whether the inner drive has an enabled observer attached."""
        return self.inner.observed

    @property
    def block_bits(self) -> float:
        """Bits per block slot."""
        return self.inner.block_bits

    @property
    def slots(self) -> int:
        """Number of block slots."""
        return self.inner.slots

    def attach_injector(self, injector) -> None:
        """Install a fault injector on the inner drive."""
        self.inner.attach_injector(injector)

    def attach_observer(self, obs) -> None:
        """Install an observability handle on the inner drive."""
        self.inner.attach_observer(obs)

    def parameters(self):
        """Analytic parameters of the inner mechanism."""
        return self.inner.parameters()

    # -- cached accesses -------------------------------------------------------

    def read_slot(self, slot: int, bits: Optional[float] = None) -> float:
        """Read through the cache; returns elapsed simulated seconds."""
        return self._read(slot, bits, self.inner.read_slot)[0]

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
        span = rec.span_begin("cache_probe", now, parent, slot)
        below = span if span is not None else parent
        try:
            duration, status = self._read(
                slot, bits,
                lambda slot, bits: self.inner.traced_read(
                    slot, bits, now, rec, below
                ),
            )
        except Exception as fault:
            defect = isinstance(fault, MediaDefectError)
            rec.span_end(
                span, now + getattr(fault, "elapsed", 0.0),
                "defect" if defect else type(fault).__name__,
            )
            raise
        rec.span_end(span, now + duration, status)
        return duration

    def _read(self, slot: int, bits: Optional[float], read_inner):
        """The one cached read: ``(elapsed, "hit" | "miss")``; a miss
        reads the mechanism through *read_inner*."""
        hit = self.cache.lookup(slot)
        if self._rec is not None:
            self._rec.cache_probe(hit)
        if hit:
            return self.hit_time, "hit"
        try:
            duration = read_inner(slot, bits)
        except MediaDefectError:
            # The media is bad: any stale residency for the slot must go
            # (data cached before the defect surfaced may predate it).
            self.cache.invalidate(slot)
            raise
        evictions_before = self.cache.stats.evictions
        self.cache.insert(slot)
        evicted = self.cache.stats.evictions - evictions_before
        if evicted and self._rec is not None:
            self._rec.cache_evicted(evicted)
        return duration, "miss"

    def write_slot(self, slot: int, bits: Optional[float] = None) -> float:
        """Write through to the mechanism, invalidating residency."""
        self.cache.invalidate(slot)
        return self.inner.write_slot(slot, bits)
