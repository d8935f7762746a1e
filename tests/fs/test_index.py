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


def sectors(count):
    return list(range(count))


class TestAppendLookup:
    def test_roundtrip(self):
        index = make_index()
        stored = [PrimaryEntry(sector=i * 64, sector_count=64) for i in range(10)]
        # Three calls: the second and third each start in a partly
        # filled primary block.
        for part in (stored[:3], stored[3:6], stored[6:]):
            sectors_of_part = [entry.sector for entry in part]
            index.extend(sectors_of_part, 64, units=4 * len(part))
        for i, entry in enumerate(stored):
            assert index.lookup(i) == entry
        counts = [entry.block_count for entry in index.secondaries[0].entries]
        assert counts == [4, 4, 2]
        index.verify()

    def test_null_silence_entries(self):
        index = make_index()
        # The second entry is a silence delay holder.
        index.extend([0, None], 64, units=8)
        assert index.lookup(0) == PrimaryEntry(sector=0, sector_count=64)
        assert index.lookup(1) is None

    def test_block_count_and_units(self):
        index = make_index()
        index.extend(sectors(7), 1, units=28)
        assert index.block_count == 7
        assert index.header.frame_count == 28
        with pytest.raises(ParameterError):
            index.extend(sectors(1), 1, units=-1)

    def test_lookup_out_of_range(self):
        index = make_index()
        index.extend(sectors(1), 1)
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
        index.extend([None if e is None else e.sector for e in stored], 1)
        assert list(index) == stored


class TestOneSectorCount:
    """Every block of a strand spans the same sectors: the index holds a
    sector per block and the count once."""

    def test_an_entry_of_another_size_is_refused(self):
        index = make_index()
        index.extend(sectors(2), 64)
        with pytest.raises(ParameterError):
            index.extend(sectors(1), 32)
        with pytest.raises(ParameterError):
            index.update(0, PrimaryEntry(sector=128, sector_count=32))
        index.update(1, PrimaryEntry(sector=640, sector_count=64))
        index.update(0, None)
        assert list(index) == [None, PrimaryEntry(640, 64)]

    def test_a_zero_sector_count_is_refused(self):
        with pytest.raises(ParameterError):
            make_index().extend(sectors(1), 0)


class TestMultiLevelGrowth:
    def test_primary_blocks_fill_then_split(self):
        index = make_index(primary_fanout=4)
        index.extend(sectors(9), 1)
        assert len(index.primaries) == 3
        assert len(index.primaries[0].entries) == 4
        assert len(index.primaries[2].entries) == 1

    def test_secondary_blocks_grow(self):
        # fanout 2x2: 4 primaries per secondary pair.
        index = make_index(primary_fanout=2, secondary_fanout=2)
        index.extend(sectors(10), 1)  # 5 primaries -> 3 secondaries
        assert len(index.primaries) == 5
        assert len(index.secondaries) == 3
        assert len(index.header.secondary_slots) == 3

    def test_large_strand_constant_time_lookup(self):
        index = make_index(primary_fanout=8, secondary_fanout=8)
        index.extend(sectors(1000), 1)
        assert index.lookup(999).sector == 999
        assert index.lookup(123).sector == 123


class TestSlotAssignment:
    def test_assign_and_list(self):
        index = make_index(primary_fanout=2, secondary_fanout=2)
        index.extend(sectors(5), 1)
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
        index.extend(sectors(1), 1)
        with pytest.raises(ParameterError):
            index.assign_slots([1, 2, 3, 4, 5, 6, 7])


class TestVerification:
    def test_fresh_index_verifies(self):
        index = make_index(primary_fanout=3, secondary_fanout=2)
        index.extend(sectors(11), 1)
        index.verify()

    def test_detects_header_mismatch(self):
        index = make_index()
        index.extend(sectors(1), 1)
        index.header.secondary_slots.append(None)  # corrupt
        with pytest.raises(IndexCorruptionError):
            index.verify()

    def test_detects_overfilled_primary(self):
        index = make_index(primary_fanout=2)
        index.extend(sectors(1), 1)
        index.primaries[0].entries.append(None)
        index.primaries[0].entries.append(None)  # corrupt: 3 of 2
        with pytest.raises(IndexCorruptionError):
            index.verify()

    def test_rejects_bad_construction(self):
        with pytest.raises(ParameterError):
            StrandIndex(frame_rate=0, primary_fanout=4, secondary_fanout=4)
        with pytest.raises(ParameterError):
            StrandIndex(frame_rate=30, primary_fanout=0, secondary_fanout=4)
