"""Unit tests for drive factory specs."""

import pytest

from repro.disk import (
    FAST_DRIVE,
    TESTBED_DRIVE,
    build_array,
    build_drive,
)
from repro.errors import ParameterError


class TestSpecs:
    def test_testbed_geometry(self):
        geometry = TESTBED_DRIVE.geometry()
        assert geometry.cylinders == 1024
        # ~229 MBytes total.
        assert geometry.capacity_bits == pytest.approx(
            1024 * 8 * 56 * 512 * 8
        )

    def test_fast_drive_is_faster(self):
        assert FAST_DRIVE.transfer_rate > TESTBED_DRIVE.transfer_rate
        fast = build_drive(FAST_DRIVE)
        slow = build_drive(TESTBED_DRIVE)
        assert fast.parameters().seek_max < slow.parameters().seek_max


class TestBuilders:
    def test_default_block_holds_four_frames(self):
        drive = build_drive()
        # 32 KBytes = four 8-KByte compressed NTSC frames.
        assert drive.block_bits == 4 * 8 * 1024 * 8

    def test_custom_block_size(self):
        drive = build_drive(sectors_per_block=8)
        assert drive.block_bits == 8 * 512 * 8

    def test_build_array_members_independent(self):
        array = build_array(3)
        array.member(0).read_slot(array.member(0).slots - 1)
        assert array.member(0).head_cylinder > 0
        assert array.member(1).head_cylinder == 0

    def test_build_array_rejects_zero(self):
        with pytest.raises(ParameterError):
            build_array(0)
