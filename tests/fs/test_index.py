"""Unit tests for the 3-level strand index (Figs. 5-6)."""

import pytest

from repro.errors import IndexCorruptionError, ParameterError
from repro.fs.index import (
    PRIMARY_ENTRY_BITS,
    SECONDARY_ENTRY_BITS,
    PrimaryEntry,
    StrandIndex,
    fanout_for,
)


def make_index(primary_fanout=4, secondary_fanout=3):
    return StrandIndex(
        frame_rate=30.0,
        primary_fanout=primary_fanout,
        secondary_fanout=secondary_fanout,
    )


class TestFanout:
    def test_entry_sizes_match_fig6(self):
        # Primary: sector + sectorCount; secondary: 4 fields.
        assert PRIMARY_ENTRY_BITS == 64
        assert SECONDARY_ENTRY_BITS == 128

    def test_fanout_computation(self):
        assert fanout_for(32 * 1024 * 8, PRIMARY_ENTRY_BITS) == 4096
        assert fanout_for(32 * 1024 * 8, SECONDARY_ENTRY_BITS) == 2048

    def test_too_small_block_rejected(self):
        with pytest.raises(ParameterError):
            fanout_for(32, 64)


def entries(count):
    return [PrimaryEntry(sector=i, sector_count=1) for i in range(count)]


class TestAppendLookup:
    def test_roundtrip(self):
        index = make_index()
        stored = [PrimaryEntry(sector=i * 64, sector_count=64) for i in range(10)]
        # Three calls: the second and third each start in a partly
        # filled primary block.
        for part in (stored[:3], stored[3:6], stored[6:]):
            index.extend(part, units=4 * len(part))
        for i, entry in enumerate(stored):
            assert index.lookup(i) == entry
        counts = [entry.block_count for entry in index.secondaries[0].entries]
        assert counts == [4, 4, 2]
        index.verify()

    def test_null_silence_entries(self):
        index = make_index()
        # The second entry is a silence delay holder.
        index.extend([PrimaryEntry(sector=0, sector_count=64), None], units=8)
        assert index.lookup(0) is not None
        assert index.lookup(1) is None

    def test_block_count_and_units(self):
        index = make_index()
        index.extend(entries(7), units=28)
        assert index.block_count == 7
        assert index.header.frame_count == 28
        with pytest.raises(ParameterError):
            index.extend(entries(1), units=-1)

    def test_lookup_out_of_range(self):
        index = make_index()
        index.extend(entries(1))
        with pytest.raises(ParameterError):
            index.lookup(1)
        with pytest.raises(ParameterError):
            index.lookup(-1)

    def test_iteration_order(self):
        index = make_index(primary_fanout=2)
        stored = [
            PrimaryEntry(sector=i, sector_count=1) if i % 2 == 0 else None
            for i in range(5)
        ]
        index.extend(stored)
        assert list(index) == stored


class TestMultiLevelGrowth:
    def test_primary_blocks_fill_then_split(self):
        index = make_index(primary_fanout=4)
        index.extend(entries(9))
        assert len(index.primaries) == 3
        assert len(index.primaries[0].entries) == 4
        assert len(index.primaries[2].entries) == 1

    def test_secondary_blocks_grow(self):
        # fanout 2x2: 4 primaries per secondary pair.
        index = make_index(primary_fanout=2, secondary_fanout=2)
        index.extend(entries(10))  # 5 primaries -> 3 secondaries
        assert len(index.primaries) == 5
        assert len(index.secondaries) == 3
        assert index.header.secondary_count == 3

    def test_large_strand_constant_time_lookup(self):
        index = make_index(primary_fanout=8, secondary_fanout=8)
        index.extend(entries(1000))
        assert index.lookup(999).sector == 999
        assert index.lookup(123).sector == 123


class TestSlotAssignment:
    def test_assign_and_list(self):
        index = make_index(primary_fanout=2, secondary_fanout=2)
        index.extend(entries(5))
        count = index.index_block_count()
        assert count == 1 + len(index.secondaries) + len(index.primaries)
        slots = list(range(100, 100 + count))
        index.assign_slots(slots)
        assert index.header.slot == 100
        assert sorted(index.assigned_slots()) == slots
        # Secondary entries now point at primary slots.
        for secondary in index.secondaries:
            for entry in secondary.entries:
                assert entry.sector >= 100

    def test_wrong_slot_count_rejected(self):
        index = make_index()
        index.extend(entries(1))
        with pytest.raises(ParameterError):
            index.assign_slots([1, 2, 3, 4, 5, 6, 7])


class TestVerification:
    def test_fresh_index_verifies(self):
        index = make_index(primary_fanout=3, secondary_fanout=2)
        index.extend(entries(11))
        index.verify()

    def test_detects_header_mismatch(self):
        index = make_index()
        index.extend(entries(1))
        index.header.secondary_slots.append(None)  # corrupt
        with pytest.raises(IndexCorruptionError):
            index.verify()

    def test_detects_overfilled_primary(self):
        index = make_index(primary_fanout=2)
        index.extend(entries(1))
        index.primaries[0].entries.append(None)
        index.primaries[0].entries.append(None)  # corrupt: 3 of 2
        with pytest.raises(IndexCorruptionError):
            index.verify()

    def test_rejects_bad_construction(self):
        with pytest.raises(ParameterError):
            StrandIndex(frame_rate=0, primary_fanout=4, secondary_fanout=4)
        with pytest.raises(ParameterError):
            StrandIndex(frame_rate=30, primary_fanout=0, secondary_fanout=4)
