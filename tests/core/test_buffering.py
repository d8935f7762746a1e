"""Unit tests for §3.3.2 buffering and read-ahead requirements."""

import math

import pytest

from repro.core import buffering
from repro.core.continuity import Architecture
from repro.core.symbols import BlockModel, DiskParameters
from repro.errors import ParameterError


@pytest.fixture
def disk():
    return DiskParameters(
        transfer_rate=10e6, seek_max=0.040, seek_avg=0.018, seek_track=0.005
    )


@pytest.fixture
def block():
    return BlockModel(unit_rate=30.0, unit_size=65536.0, granularity=4)


class TestStrictAndAverageBuffers:
    def test_strict_continuity_counts(self):
        # k = 1 reduces to the strict 1/2/p counts of §3.3.2.
        assert buffering.buffers_for_average_continuity(
            Architecture.SEQUENTIAL, 1
        ) == 1
        assert buffering.buffers_for_average_continuity(
            Architecture.PIPELINED, 1
        ) == 2
        assert buffering.buffers_for_average_continuity(
            Architecture.CONCURRENT, 1, p=5
        ) == 5

    @pytest.mark.parametrize("k", [1, 2, 4, 16])
    def test_average_counts_k_2k_pk(self, k):
        assert buffering.buffers_for_average_continuity(
            Architecture.SEQUENTIAL, k
        ) == k
        assert buffering.buffers_for_average_continuity(
            Architecture.PIPELINED, k
        ) == 2 * k
        assert buffering.buffers_for_average_continuity(
            Architecture.CONCURRENT, k, p=3
        ) == 3 * k

    @pytest.mark.parametrize("k", [1, 2, 8])
    def test_read_ahead_k_and_pk(self, k):
        assert buffering.read_ahead_required(Architecture.SEQUENTIAL, k) == k
        assert buffering.read_ahead_required(Architecture.PIPELINED, k) == k
        assert buffering.read_ahead_required(
            Architecture.CONCURRENT, k, p=4
        ) == 4 * k

    def test_rejects_bad_k(self):
        with pytest.raises(ParameterError):
            buffering.read_ahead_required(Architecture.PIPELINED, 0)

    def test_rejects_bad_p(self):
        with pytest.raises(ParameterError):
            buffering.buffers_for_average_continuity(
                Architecture.CONCURRENT, 1, p=0
            )


class TestTaskSwitchReadAhead:
    def test_h_covers_max_seek(self, block, disk):
        h = buffering.task_switch_read_ahead(block, disk)
        assert h == math.ceil(disk.seek_max * block.blocks_per_second)
        # h blocks of playback must cover the worst re-positioning delay.
        assert h * block.playback_duration >= disk.seek_max

    def test_h_grows_with_seek(self, block, disk):
        slower = DiskParameters(
            transfer_rate=disk.transfer_rate, seek_max=0.5,
            seek_avg=0.018, seek_track=0.005,
        )
        assert buffering.task_switch_read_ahead(block, slower) >= (
            buffering.task_switch_read_ahead(block, disk)
        )


class TestFastForward:
    def test_without_skipping_inflates_rate(self, block):
        fast = buffering.fast_forward_block(block, 2.0, skipping=False)
        assert fast.unit_rate == pytest.approx(60.0)
        assert fast.playback_duration == pytest.approx(
            block.playback_duration / 2
        )

    def test_with_skipping_keeps_block_rate(self, block):
        fast = buffering.fast_forward_block(block, 2.0, skipping=True)
        # Fetching every 2nd block at 2x speed: block fetch rate unchanged.
        assert fast.unit_rate == pytest.approx(block.unit_rate)

    def test_fractional_speedup_with_skipping(self, block):
        fast = buffering.fast_forward_block(block, 1.5, skipping=True)
        # stride ceil(1.5)=2, so effective rate scales by 1.5/2.
        assert fast.unit_rate == pytest.approx(block.unit_rate * 0.75)

    def test_rejects_non_positive_speedup(self, block):
        with pytest.raises(ParameterError):
            buffering.fast_forward_block(block, 0.0, skipping=False)


class TestSlowMotion:
    def test_accumulation_positive_when_disk_outruns_display(
        self, block, disk
    ):
        rate = buffering.slow_motion_accumulation_rate(
            block, disk, scattering=disk.seek_avg, slowdown=4.0
        )
        assert rate > 0

    def test_accumulation_shrinks_with_less_slowdown(self, block, disk):
        slow4 = buffering.slow_motion_accumulation_rate(
            block, disk, scattering=disk.seek_avg, slowdown=4.0
        )
        slow2 = buffering.slow_motion_accumulation_rate(
            block, disk, scattering=disk.seek_avg, slowdown=2.0
        )
        assert slow4 > slow2

    def test_rejects_speedup_disguised_as_slowdown(self, block, disk):
        with pytest.raises(ParameterError):
            buffering.slow_motion_accumulation_rate(
                block, disk, scattering=0.01, slowdown=0.5
            )
