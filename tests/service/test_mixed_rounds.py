"""Unit tests for concurrent storage + retrieval service."""

import pytest

from repro.analysis.experiments import fetches_with_gap
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
from repro.service.mixed_rounds import RecordStream
from repro.service.rounds import RoundRobinService, StreamState


@pytest.fixture
def block():
    return video_block_model(TESTBED_1991.video, 4)


def play_stream(drive, block, request_id="play", blocks=40, k=4):
    fetches = fetches_with_gap(
        drive, blocks, drive.parameters().seek_avg,
        block.block_bits, block.playback_duration,
    )
    return StreamState(
        request_id=request_id, fetches=fetches, buffer_capacity=2 * k
    )


def record_stream(drive, block, request_id="rec", blocks=40, capacity=4):
    freemap = FreeMap(drive.slots)
    bounds = ScatterBounds(0.0, drive.rotation.average_latency + 0.01)
    placement = StrandPlacer(
        drive, ConstrainedScatterAllocator(drive, freemap, bounds)
    ).place(blocks)
    drive.park(0)
    return RecordStream(
        request_id=request_id,
        slots=placement.slots,
        block_period=block.playback_duration,
        staging_capacity=capacity,
    )


class TestRecordStream:
    def test_capture_schedule(self, block):
        record = RecordStream(
            request_id="r", slots=[1, 2, 3],
            block_period=0.1, staging_capacity=2,
        )
        assert record.captured_at(0.05) == 0
        assert record.captured_at(0.15) == 1
        assert record.captured_at(10.0) == 3  # clamped to the plan
        assert record.deadline_of(0) == pytest.approx(0.3)

    def test_validation(self):
        with pytest.raises(ParameterError):
            RecordStream("r", [1], block_period=0.0)
        with pytest.raises(ParameterError):
            RecordStream("r", [1], block_period=0.1, staging_capacity=0)


class TestMixedService:
    def test_recording_alone_is_continuous(self, block):
        drive = build_drive()
        record = record_stream(drive, block)
        service = RoundRobinService(
            drive, lambda r, n: 4, after_turns=[record]
        )
        metrics = service.run([])
        assert record.finished
        assert metrics["rec"].continuous
        assert metrics["rec"].blocks_delivered == 40

    def test_record_plus_play_both_continuous(self, block):
        """§3's symmetric claim: storage and retrieval share the loop."""
        drive = build_drive()
        record = record_stream(drive, block)
        play = play_stream(drive, block)
        service = RoundRobinService(
            drive, lambda r, n: 4, after_turns=[record]
        )
        metrics = service.run([play])
        assert metrics["play"].continuous
        assert metrics["rec"].continuous

    def test_two_recorders_and_player(self, block):
        drive = build_drive()
        recorders = [
            record_stream(drive, block, request_id=f"rec{i}", blocks=30)
            for i in range(2)
        ]
        play = play_stream(drive, block, blocks=30)
        service = RoundRobinService(
            drive, lambda r, n: 4, after_turns=recorders
        )
        metrics = service.run([play])
        assert all(m.continuous for m in metrics.values())
        assert all(r.finished for r in recorders)

    def test_writes_never_precede_capture(self, block):
        drive = build_drive()
        record = record_stream(drive, block, blocks=20)
        service = RoundRobinService(
            drive, lambda r, n: 8, after_turns=[record]
        )
        service.run([])
        # Delivery j completes after block j finished capturing.
        for j, write_end in enumerate(record.written):
            captured = (j + 1) * block.playback_duration
            assert write_end > captured

    def test_tiny_staging_buffer_overruns(self, block):
        """A 1-block staging buffer cannot absorb competing play load."""
        drive = build_drive()
        record = record_stream(drive, block, blocks=30, capacity=1)
        plays = [
            play_stream(drive, block, request_id=f"p{i}", blocks=30)
            for i in range(3)
        ]
        service = RoundRobinService(
            drive, lambda r, n: 8, after_turns=[record]
        )
        metrics = service.run(plays)
        assert metrics["rec"].misses > 0
