"""Unit tests for §6.2 seek-optimized request ordering."""

import pytest

from repro.config import TESTBED_1991
from repro.core.symbols import video_block_model
from repro.disk import build_drive
from repro.errors import ParameterError
from repro.rope.server import BlockFetch
from repro.service.rounds import RoundRobinService, StreamState
from repro.service.scan_order import measured_capacity, scan_order


@pytest.fixture
def block():
    return video_block_model(TESTBED_1991.video, 1)


def regional_streams(drive, block, n=3, blocks=60, k=8):
    """n streams in n disk regions, adversarial arrival order."""
    regions = [0, n - 1] + list(range(1, n - 1))
    streams = []
    for i, region in enumerate(regions[:n]):
        base = region * drive.slots // n
        fetches = [
            BlockFetch(
                slot=min(base + j, drive.slots - 1),
                bits=block.block_bits,
                duration=block.playback_duration,
            )
            for j in range(blocks)
        ]
        streams.append(
            StreamState(
                request_id=f"s{i}", fetches=fetches, buffer_capacity=2 * k
            )
        )
    return streams


class RoundTimes(list):
    """After-turn work that only notes how long each round's turns took."""

    due = float("inf")

    def serve(self, service, time, round_start, active, k):
        if time > round_start:
            self.append(time - round_start)
        return time, False

    def results(self):
        return {}


class TestScanOrdering:
    def test_same_deliveries_as_round_robin(self, block):
        """SCAN changes order, never correctness: all blocks delivered."""
        drive = build_drive()
        streams = regional_streams(drive, block)
        service = RoundRobinService(drive, lambda r, n: 8, order=scan_order)
        metrics = service.run(streams)
        assert all(m.blocks_delivered == 60 for m in metrics.values())

    def test_scan_reduces_seek_time(self, block):
        drive_rr = build_drive()
        rr = RoundRobinService(drive_rr, lambda r, n: 8)
        rr.run(regional_streams(drive_rr, block))
        drive_scan = build_drive()
        scan = RoundRobinService(drive_scan, lambda r, n: 8, order=scan_order)
        scan.run(regional_streams(drive_scan, block))
        assert drive_scan.stats.seek_time <= drive_rr.stats.seek_time

    def test_order_keys_on_the_next_stored_block_past_silence(self, block):
        """Leading silence holders are looked through, from the cursor."""
        drive = build_drive()
        far, near = drive.slots - 1, drive.slots // 3

        def stream(request_id, slots):
            return StreamState(
                request_id=request_id, buffer_capacity=4,
                fetches=[
                    BlockFetch(slot, block.block_bits, block.playback_duration)
                    for slot in slots
                ],
            )

        streams = [
            stream("far", [None, None, far, 0]),
            stream("near", [near, far]),
            stream("silent", [None, None]),
        ]
        service = RoundRobinService(drive, lambda r, n: 1, order=scan_order)

        def order(round_number):
            return [
                s.request_id for s in scan_order(drive, streams, round_number)
            ]

        assert drive.head_cylinder == 0
        assert order(0) == ["silent", "near", "far"]
        assert order(1) == ["silent", "near", "far"]   # all behind head 0
        streams[0].next_fetch = 3          # past `far`: next stored is slot 0
        streams[1].next_fetch = 1
        assert order(0) == ["far", "silent", "near"]
        delivered = {
            rid: m.blocks_delivered for rid, m in service.run(streams).items()
        }
        assert delivered == {"far": 1, "near": 1, "silent": 2}

    def test_probe_measures_rounds(self, block):
        drive = build_drive()
        streams = regional_streams(drive, block, blocks=32, k=8)
        times = RoundTimes()
        RoundRobinService(
            drive, lambda r, n: 8, order=scan_order, after_turns=[times]
        ).run(streams)
        assert len(times) >= 4
        assert 0 < sum(times) / len(times) <= max(times)
        # The rounds' turns are all the drive did.
        assert sum(times) == pytest.approx(drive.stats.busy_time)

    def test_probe_restores_service(self, block):
        """Measuring replaces no method: the probe is after-turn work."""
        drive = build_drive()
        service = RoundRobinService(
            drive, lambda r, n: 8, order=scan_order,
            after_turns=[RoundTimes()],
        )
        service.run(regional_streams(drive, block, blocks=8))
        assert "_run_round" not in vars(service)


class TestMeasuredCapacity:
    def test_form_matches_eq17(self):
        # beta_hat = 0.6 / (3*10) = 0.02; ceil(0.1/0.02) - 1 = 4.
        assert measured_capacity(0.1, 10, 0.6, 3) == 4

    def test_floor_at_one(self):
        assert measured_capacity(0.01, 1, 10.0, 1) == 1

    def test_validation(self):
        with pytest.raises(ParameterError):
            measured_capacity(0.1, 0, 0.6, 3)
        with pytest.raises(ParameterError):
            measured_capacity(0.1, 1, 0.0, 3)
