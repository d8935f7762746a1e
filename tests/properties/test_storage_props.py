"""Property-based tests for free-space, allocation, index, and GC."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk import (
    ConstrainedScatterAllocator,
    FreeMap,
    ScatterBounds,
    build_drive,
)
from repro.errors import GarbageCollectionError, ScatteringError
from repro.fs.gc import InterestRegistry
from repro.fs.index import PrimaryEntry, StrandIndex


class TestFreeMapProperties:
    @given(
        operations=st.lists(
            st.tuples(st.booleans(), st.integers(0, 63)), max_size=200
        )
    )
    def test_free_count_always_consistent(self, operations):
        """free_count equals the actual number of free slots, always."""
        fm = FreeMap(64)
        reference = set(range(64))  # free slots
        for allocate, slot in operations:
            if allocate and slot in reference:
                fm.allocate(slot)
                reference.discard(slot)
            elif not allocate and slot not in reference:
                fm.release(slot)
                reference.add(slot)
        assert fm.free_count == len(reference)
        assert set(fm.free_slots()) == reference
        assert fm.occupancy == pytest.approx(1 - len(reference) / 64)

    @given(
        used=st.sets(st.integers(0, 63), max_size=40),
        length=st.integers(1, 10),
    )
    def test_find_run_returns_genuinely_free_run(self, used, length):
        fm = FreeMap(64)
        for slot in used:
            fm.allocate(slot)
        start = fm.find_run(length)
        if start is None:
            # Verify no run exists by brute force.
            free = [s for s in range(64) if s not in used]
            longest = current = 0
            previous = None
            for slot in free:
                current = current + 1 if previous == slot - 1 else 1
                longest = max(longest, current)
                previous = slot
            assert longest < length
        else:
            assert all(fm.is_free(s) for s in range(start, start + length))


class TestConstrainedAllocationProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        extra=st.floats(min_value=0.002, max_value=0.02),
        count=st.integers(min_value=2, max_value=60),
        seed=st.integers(0, 1000),
    )
    def test_every_gap_within_bounds(self, extra, count, seed):
        drive = build_drive()
        freemap = FreeMap(drive.slots)
        # Pre-fragment the disk randomly to stress the window search.
        rng = random.Random(seed)
        for _ in range(drive.slots // 4):
            slot = rng.randrange(drive.slots)
            if freemap.is_free(slot):
                freemap.allocate(slot)
        bounds = ScatterBounds(
            0.0, drive.rotation.average_latency + extra
        )
        allocator = ConstrainedScatterAllocator(drive, freemap, bounds)
        try:
            slots = allocator.allocate_strand(count)
        except ScatteringError:
            # A crowded window may legitimately refuse; the property under
            # test is only about the gaps of *successful* placements.
            return
        for a, b in zip(slots, slots[1:]):
            assert bounds.admits(drive.access_gap(a, b))


class TestIndexProperties:
    @given(
        pattern=st.lists(st.booleans(), min_size=1, max_size=300),
        primary_fanout=st.integers(2, 16),
        secondary_fanout=st.integers(2, 8),
    )
    def test_lookup_matches_reference(
        self, pattern, primary_fanout, secondary_fanout
    ):
        """Random stored/silence patterns round-trip through the 3-level
        index, and verify() passes."""
        index = StrandIndex(
            frame_rate=30.0,
            primary_fanout=primary_fanout,
            secondary_fanout=secondary_fanout,
        )
        reference = [
            PrimaryEntry(sector=i * 64, sector_count=64) if stored else None
            for i, stored in enumerate(pattern)
        ]
        index.extend(
            [None if entry is None else entry.sector for entry in reference],
            64, units=4 * len(reference),
        )
        assert index.block_count == len(reference)
        assert index.header.frame_count == 4 * len(reference)
        for i, expected in enumerate(reference):
            assert index.lookup(i) == expected
        assert list(index) == reference
        index.verify()


class TestInterestProperties:
    @given(
        events=st.lists(
            st.tuples(
                st.sampled_from(["register", "drop_rope"]),
                st.integers(0, 4),   # rope
                st.integers(0, 6),   # strand
            ),
            max_size=100,
        )
    )
    def test_referenced_strands_never_collectable(self, events):
        registry = InterestRegistry()
        reference = {}  # rope -> set of strands
        for action, rope, strand in events:
            rope_id, strand_id = f"R{rope}", f"S{strand}"
            if action == "register":
                registry.register(rope_id, strand_id)
                reference.setdefault(rope_id, set()).add(strand_id)
            else:
                registry.drop_rope(rope_id)
                reference.pop(rope_id, None)
        live = set().union(*reference.values()) if reference else set()
        for strand in (f"S{i}" for i in range(7)):
            assert registry.is_referenced(strand) == (strand in live)
