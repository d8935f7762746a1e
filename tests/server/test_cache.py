"""Unit tests for the bounded LRU block cache and the cached drive."""

import pytest

from repro.disk import BlockCache, CachedDrive, build_drive
from repro.errors import (
    MediaDefectError,
    ParameterError,
    TransientReadError,
)
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec

pytestmark = pytest.mark.server


class TestBlockCacheLru:
    def test_miss_then_hit(self):
        cache = BlockCache(4)
        assert not cache.lookup(7)
        cache.insert(7)
        assert cache.lookup(7)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_ratio == 0.5

    def test_eviction_is_least_recently_used(self):
        cache = BlockCache(2)
        cache.insert(1)
        cache.insert(2)
        cache.lookup(1)        # refresh 1; 2 becomes LRU
        cache.insert(3)
        assert 1 in cache
        assert 2 not in cache
        assert 3 in cache
        assert cache.stats.evictions == 1

    def test_reinsert_refreshes_without_counting(self):
        cache = BlockCache(2)
        cache.insert(1)
        cache.insert(2)
        cache.insert(1)        # refresh, not a new insertion
        assert cache.stats.insertions == 2
        cache.insert(3)        # evicts 2, the true LRU
        assert 2 not in cache

    def test_capacity_must_be_positive(self):
        with pytest.raises(ParameterError):
            BlockCache(0)


class TestBlockCachePinning:
    def test_pin_is_all_or_nothing(self):
        cache = BlockCache(4)
        cache.insert(1)
        assert not cache.pin([1, 2])   # 2 not resident
        assert cache.pinned_count == 0
        assert cache.stats.pin_failures == 1
        cache.insert(2)
        assert cache.pin([1, 2])
        assert cache.pinned_count == 2

    def test_pinned_slots_survive_lru_pressure(self):
        cache = BlockCache(2)
        cache.insert(1)
        cache.insert(2)
        cache.pin([1])
        cache.insert(3)        # must evict 2, not the pinned 1
        assert 1 in cache
        assert 2 not in cache

    def test_fully_pinned_cache_refuses_inserts(self):
        cache = BlockCache(2)
        cache.insert(1)
        cache.insert(2)
        cache.pin([1, 2])
        assert not cache.insert(3)
        assert 3 not in cache

    def test_unpin_is_refcounted(self):
        cache = BlockCache(4)
        cache.insert(1)
        cache.pin([1])
        cache.pin([1])
        cache.unpin([1])
        assert cache.pinned_count == 1
        cache.unpin([1])
        assert cache.pinned_count == 0

    def test_invalidate_counts_and_drops(self):
        cache = BlockCache(4)
        cache.insert(1)
        cache.invalidate(1)
        assert 1 not in cache
        assert cache.stats.invalidations == 1
        cache.invalidate(99)   # absent: not an invalidation
        assert cache.stats.invalidations == 1

    def test_resident_fraction_is_pure(self):
        cache = BlockCache(4)
        cache.insert(1)
        cache.insert(2)
        before = cache.stats.accesses
        assert cache.resident_fraction([1, 2]) == 1.0
        assert cache.resident_fraction([1, 3]) == 0.5
        assert cache.resident_fraction([None, 1]) == 1.0
        assert cache.resident_fraction([]) == 1.0
        assert cache.stats.accesses == before


class TestCachedDrive:
    def _cached(self, capacity=8, hit_time=0.0):
        drive = build_drive()
        cache = BlockCache(capacity)
        return drive, cache, CachedDrive(drive, cache, hit_time=hit_time)

    def test_hit_costs_hit_time_not_mechanism_time(self):
        _drive, _cache, cached = self._cached(hit_time=0.001)
        first = cached.read_slot(5)
        assert first > 0.001    # a real seek + rotation + transfer
        again = cached.read_slot(5)
        assert again == 0.001

    def test_miss_populates_and_proxies_surface(self):
        drive, cache, cached = self._cached()
        assert cached.slots == drive.slots
        assert cached.block_bits == drive.block_bits
        cached.read_slot(3)
        assert 3 in cache
        assert cache.stats.insertions == 1

    def test_write_through_invalidates(self):
        _drive, cache, cached = self._cached()
        cached.read_slot(4)
        assert 4 in cache
        cached.write_slot(4)
        assert 4 not in cache
        assert cache.stats.invalidations == 1

    def test_transient_fault_never_populates(self):
        drive, cache, cached = self._cached()
        plan = FaultPlan(
            specs=(FaultSpec(kind=FaultKind.TRANSIENT, slot=6),)
        )
        cached.attach_injector(FaultInjector(plan))
        with pytest.raises(TransientReadError):
            cached.read_slot(6)
        assert 6 not in cache
        # The retry (fault consumed) succeeds and caches normally.
        cached.read_slot(6)
        assert 6 in cache

    def test_defect_invalidates_stale_residency(self):
        drive, cache, cached = self._cached()
        cached.read_slot(6)
        assert 6 in cache
        cache.invalidate(6)    # simulate the block aging out...
        cache.stats.invalidations = 0
        plan = FaultPlan(
            specs=(FaultSpec(kind=FaultKind.MEDIA_DEFECT, slot=6),)
        )
        cached.attach_injector(FaultInjector(plan))
        with pytest.raises(MediaDefectError):
            cached.read_slot(6)
        assert 6 not in cache

    def test_hit_skips_the_injector_entirely(self):
        drive, cache, cached = self._cached()
        cached.read_slot(6)
        plan = FaultPlan(
            specs=(FaultSpec(kind=FaultKind.MEDIA_DEFECT, slot=6),)
        )
        cached.attach_injector(FaultInjector(plan))
        # Resident: served from memory, the bad media is never touched.
        assert cached.read_slot(6) == 0.0


class TestOneCachedRead:
    """``read_slot`` and ``traced_read`` are two entry points to one
    cached read: same elapsed time, cache accounting, ``cache.*``
    counters and residency, whatever the access turns into."""

    SLOT = 6

    def _outcome(self, entry, case):
        from repro.obs import Observability
        from repro.obs.recorder import recorder_for

        obs = Observability()
        drive = build_drive()
        cache = BlockCache(2)
        cached = CachedDrive(drive, cache, hit_time=0.001, obs=obs)
        cached.read_slot(1)
        cached.read_slot(2)    # full: the next miss evicts
        if case == "hit":
            cached.read_slot(self.SLOT)
        fault = {
            "defect": FaultKind.MEDIA_DEFECT, "transient": FaultKind.TRANSIENT,
        }.get(case)
        if fault is not None:
            cached.attach_injector(FaultInjector(FaultPlan(
                specs=(FaultSpec(kind=fault, slot=self.SLOT),)
            )))
        rec = recorder_for(obs, "loop")
        parent = obs.tracer.start_span("test.block", 0.0, session="s")
        try:
            if entry == "read_slot":
                elapsed = cached.read_slot(self.SLOT, None)
            else:
                elapsed = cached.traced_read(self.SLOT, None, 0.0, rec, parent)
        except (MediaDefectError, TransientReadError) as error:
            elapsed = type(error).__name__, error.elapsed
        counters = obs.registry.snapshot_dict()["counters"]
        return (
            elapsed,
            cache.stats.as_dict(),
            {k: v for k, v in counters.items() if k.startswith("cache.")},
            sorted(slot for slot in range(8) if slot in cache),
            drive.stats.reads,
        ), obs

    @pytest.mark.parametrize("case", ["hit", "miss", "defect", "transient"])
    def test_entry_points_agree(self, case):
        plain, _ = self._outcome("read_slot", case)
        traced, obs = self._outcome("traced_read", case)
        assert plain == traced
        status = {
            "hit": "hit", "miss": "miss", "defect": "defect",
            "transient": "TransientReadError",
        }[case]
        [span] = obs.tracer.spans(name="cache.read")
        assert span.status == status
        assert len(obs.tracer.spans(name="disk.access")) == (case != "hit")
