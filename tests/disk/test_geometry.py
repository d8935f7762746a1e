"""Unit tests for disk geometry and address arithmetic."""

import pytest

from repro.disk.geometry import DiskGeometry
from repro.errors import AddressError, ParameterError


@pytest.fixture
def geometry():
    return DiskGeometry(
        cylinders=10, tracks_per_cylinder=4, sectors_per_track=16,
        sector_bits=4096.0,
    )


class TestCapacity:
    def test_sector_counts(self, geometry):
        assert geometry.sectors_per_cylinder == 64
        assert geometry.total_sectors == 640
        assert geometry.capacity_bits == 640 * 4096.0

    def test_rejects_zero_dimensions(self):
        with pytest.raises(ParameterError):
            DiskGeometry(0, 4, 16, 4096.0)
        with pytest.raises(ParameterError):
            DiskGeometry(10, 4, 16, 0.0)


class TestAddressing:
    def test_cylinder_of_lba(self, geometry):
        assert geometry.cylinder_of_lba(0) == 0
        assert geometry.cylinder_of_lba(63) == 0
        assert geometry.cylinder_of_lba(64) == 1
        assert geometry.cylinder_of_lba(639) == 9

    def test_out_of_range_lba(self, geometry):
        with pytest.raises(AddressError):
            geometry.cylinder_of_lba(640)
        with pytest.raises(AddressError):
            geometry.validate_lba(-1)


class TestSlots:
    def test_slot_count(self, geometry):
        assert geometry.slots(sectors_per_block=8) == 80
        assert geometry.slots(sectors_per_block=7) == 91  # floor division

    def test_slot_to_lba(self, geometry):
        assert geometry.slot_to_lba(0, 8) == 0
        assert geometry.slot_to_lba(9, 8) == 72

    def test_slot_out_of_range(self, geometry):
        with pytest.raises(AddressError):
            geometry.slot_to_lba(80, 8)

    def test_cylinder_of_slot(self, geometry):
        # 8 slots per cylinder at 8 sectors/block.
        assert geometry.cylinder_of_slot(7, 8) == 0
        assert geometry.cylinder_of_slot(8, 8) == 1

    def test_slots_per_cylinder(self, geometry):
        assert geometry.slots_per_cylinder(8) == pytest.approx(8.0)

    def test_rejects_bad_block_size(self, geometry):
        with pytest.raises(ParameterError):
            geometry.slots(0)
