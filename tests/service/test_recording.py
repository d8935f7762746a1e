"""Unit tests for recording-side continuity: one recorder, no player —
the round loop with no playback turn, only after-turn writes."""

import pytest

from repro.config import TESTBED_1991
from repro.core.symbols import video_block_model
from repro.disk import (
    ConstrainedScatterAllocator,
    FreeMap,
    ScatterBounds,
    StrandPlacer,
    build_drive,
)
from repro.errors import ParameterError
from repro.service import RecordStream, RoundRobinService


@pytest.fixture
def block():
    return video_block_model(TESTBED_1991.video, 4)


def simulate_recording(
    slots, drive, block_period, buffer_capacity=2, k=1
):
    """Record *slots* alone on *drive*; returns (metrics, completions)."""
    record = RecordStream(
        "rec", slots, block_period, staging_capacity=buffer_capacity
    )
    metrics = RoundRobinService(
        drive, lambda _round, _n: k, after_turns=[record]
    ).run([])["rec"]
    return metrics, record.written


def constrained_placement(drive, count=60):
    freemap = FreeMap(drive.slots)
    bounds = ScatterBounds(0.0, drive.rotation.average_latency + 0.006)
    placer = StrandPlacer(
        drive, ConstrainedScatterAllocator(drive, freemap, bounds)
    )
    return placer.place(count)


class TestRecordingContinuity:
    def test_constrained_placement_records_cleanly(self, block):
        drive = build_drive()
        placement = constrained_placement(drive)
        drive.park(0)
        metrics, completions = simulate_recording(
            placement.slots, drive, block.playback_duration,
            buffer_capacity=2,
        )
        assert metrics.continuous
        assert len(completions) == 60
        assert completions == sorted(completions)

    def test_writes_start_after_capture(self, block):
        drive = build_drive()
        placement = constrained_placement(drive, count=10)
        drive.park(0)
        _, completions = simulate_recording(
            placement.slots, drive, block.playback_duration
        )
        # Block j is only available at (j+1) periods; write ends later.
        for j, completion in enumerate(completions):
            assert completion > (j + 1) * block.playback_duration

    def test_overload_overflows_staging_buffer(self, block):
        """Capture faster than the disk can retire => misses."""
        drive = build_drive()
        placement = constrained_placement(drive, count=40)
        drive.park(0)
        # A block period far below the write time is unsustainable.
        hopeless_period = 0.005
        metrics, _ = simulate_recording(
            placement.slots, drive, hopeless_period, buffer_capacity=2
        )
        assert metrics.misses > 0
        assert metrics.buffer_high_water > 2

    def test_bigger_staging_buffer_tolerates_jitter(self, block):
        drive = build_drive()
        # Stripe across the whole disk: gaps near worst case.
        slots = list(range(0, drive.slots, drive.slots // 40))[:40]
        period = block.playback_duration / 4  # tight, near the write time
        drive.park(0)
        small, _ = simulate_recording(
            slots, drive, period, buffer_capacity=1
        )
        drive2 = build_drive()
        drive2.park(0)
        large, _ = simulate_recording(
            slots, drive2, period, buffer_capacity=20
        )
        assert large.misses <= small.misses

    def test_validation(self, block):
        drive = build_drive()
        with pytest.raises(ParameterError):
            simulate_recording([0], drive, 0.0)
        with pytest.raises(ParameterError):
            simulate_recording([0], drive, 0.1, buffer_capacity=0)
