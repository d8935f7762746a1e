"""Unit tests for the three §3.1 architectures on the round loop (E1)."""

import pytest

from repro.analysis.experiments import fetches_with_gap
from repro.config import TESTBED_1991
from repro.core import continuity
from repro.core.continuity import Architecture
from repro.core.symbols import video_block_model
from repro.disk import build_array, build_drive
from repro.rope.server import BlockFetch
from repro.service import SequentialReads, play_single


# Each architecture's run as (metrics, ready): its score, and when each
# block landed.
def pipelined(fetches, drive, read_ahead=0):
    stream = play_single(fetches, drive, read_ahead=read_ahead)
    return stream.metrics, stream.ready


def sequential(fetches, drive, display):
    stream = play_single(fetches, SequentialReads(drive, display))
    return stream.metrics, stream.ready


def concurrent(fetches, array):
    stream = play_single(fetches, array, read_ahead=array.heads - 1)
    return stream.metrics, stream.ready


@pytest.fixture
def block():
    # granularity 1: the testbed drive can actually violate these bounds.
    return video_block_model(TESTBED_1991.video, 1)


def make_fetches(drive, block, gap, count=80):
    return fetches_with_gap(
        drive, count, gap, block.block_bits, block.playback_duration
    )


class TestPipelined:
    def test_continuous_inside_bound(self, block):
        drive = build_drive()
        bound = continuity.max_scattering(
            Architecture.PIPELINED, block, drive.parameters(),
            TESTBED_1991.video_device,
        )
        fetches = make_fetches(drive, block, bound * 0.9)
        metrics, ready = pipelined(fetches, drive)
        assert metrics.continuous
        assert len(ready) == len(fetches)
        assert ready == sorted(ready)

    def test_misses_beyond_bound(self, block):
        drive = build_drive()
        widest = (
            drive.seek_model.seek_time(drive.geometry.cylinders - 1)
            + drive.rotation.average_latency
        )
        fetches = make_fetches(drive, block, widest)
        metrics, _ = pipelined(fetches, drive)
        assert metrics.misses > 0
        assert metrics.max_lateness > 0

    def test_read_ahead_absorbs_jitter(self, block):
        drive = build_drive()
        widest = (
            drive.seek_model.seek_time(drive.geometry.cylinders - 1)
            + drive.rotation.average_latency
        )
        fetches = make_fetches(drive, block, widest, count=40)
        drive.park(0)
        no_ahead, _ = pipelined(fetches, drive)
        drive2 = build_drive()
        fetches2 = make_fetches(drive2, block, widest, count=40)
        drive2.park(0)
        with_ahead, _ = pipelined(fetches2, drive2, read_ahead=39)
        assert with_ahead.misses < no_ahead.misses
        assert with_ahead.startup_latency > no_ahead.startup_latency

    def test_silence_fetches_cost_nothing(self, block):
        drive = build_drive()
        fetches = [
            BlockFetch(slot=None, bits=0.0, duration=block.playback_duration)
        ] * 10
        metrics, ready = pipelined(fetches, drive)
        assert metrics.continuous
        assert all(t == 0.0 for t in ready)


class TestSequential:
    def test_needs_more_slack_than_pipelined(self, block):
        """At a gap between the two bounds, sequential misses, pipelined not."""
        device = TESTBED_1991.video_device
        reference = build_drive()
        params = reference.parameters()
        seq_bound = continuity.max_scattering(
            Architecture.SEQUENTIAL, block, params,
            TESTBED_1991.video_device,
        )
        pipe_bound = continuity.max_scattering(
            Architecture.PIPELINED, block, params,
            TESTBED_1991.video_device,
        )
        between = (seq_bound + pipe_bound) / 2
        drive_a = build_drive()
        seq_metrics, _ = sequential(
            make_fetches(drive_a, block, between, count=100), drive_a, device
        )
        drive_b = build_drive()
        pipe_metrics, _ = pipelined(
            make_fetches(drive_b, block, between, count=100), drive_b
        )
        assert seq_metrics.misses > 0
        assert pipe_metrics.misses == 0

    def test_continuous_inside_own_bound(self, block):
        drive = build_drive()
        device = TESTBED_1991.video_device
        bound = continuity.max_scattering(
            Architecture.SEQUENTIAL, block, drive.parameters(),
            TESTBED_1991.video_device,
        )
        metrics, _ = sequential(
            make_fetches(drive, block, bound * 0.9), drive, device
        )
        assert metrics.continuous

    def test_a_whole_block_converts_the_drive_block_size(self, block):
        """A fetch of ``bits=None`` reads and converts a whole block."""
        device = TESTBED_1991.video_device
        bare, converting = build_drive(), build_drive()
        metrics, ready = sequential(
            [BlockFetch(0, None, 0.1)], converting, device
        )
        whole = bare.read_slot(0) + bare.block_bits / device.display_rate
        assert ready == [pytest.approx(whole)]
        assert metrics.blocks_delivered == 1

    def test_conversion_delays_the_next_read(self, block):
        device = TESTBED_1991.video_device
        fetches = [BlockFetch(slot, block.block_bits, 0.1) for slot in (0, 0)]
        _, piped = pipelined(fetches, build_drive())
        _, converted = sequential(fetches, build_drive(), device)
        conversion = block.block_bits / device.display_rate
        assert converted == [
            pytest.approx(piped[0] + conversion),
            pytest.approx(piped[1] + 2 * conversion),
        ]


class TestConcurrent:
    def test_parallelism_rescues_infeasible_gap(self, block):
        """A gap that sinks a single head is fine with p heads."""
        single = build_drive()
        widest = (
            single.seek_model.seek_time(single.geometry.cylinders - 1)
            + single.rotation.average_latency
        )
        fetches = make_fetches(single, block, widest)
        single_metrics, _ = pipelined(fetches, single)
        assert single_metrics.misses > 0

        array = build_array(heads=4)
        fetches4 = make_fetches(array.member(0), block, widest)
        concurrent_metrics, _ = concurrent(fetches4, array)
        assert concurrent_metrics.misses == 0

    def test_ready_times_grouped_by_batch(self, block):
        array = build_array(heads=2)
        fetches = make_fetches(array.member(0), block, 0.02, count=6)
        _, ready = concurrent(fetches, array)
        assert ready[0] == ready[1]
        assert ready[2] == ready[3]
        assert ready[0] < ready[2] < ready[4]

    def test_startup_latency_is_first_batch(self, block):
        array = build_array(heads=3)
        fetches = make_fetches(array.member(0), block, 0.02, count=9)
        metrics, ready = concurrent(fetches, array)
        assert metrics.startup_latency == pytest.approx(ready[2])


class TestForcedSynchronization:
    def test_forced_sync_zeroes_display_jitter(self, block):
        """§3.2: with enough read-ahead, forcing block i to display at
        max(arrival, start + i·period) removes all display-time jitter
        that arrival jitter would otherwise cause."""
        import random

        from repro.disk import TESTBED_DRIVE
        from repro.disk import build_drive as build

        rng = random.Random(5)
        drive = build(TESTBED_DRIVE, randomized_rotation=True, rng=rng)
        bound = continuity.max_scattering(
            Architecture.PIPELINED, block, drive.parameters(),
            TESTBED_1991.video_device,
        )
        fetches = make_fetches(drive, block, bound * 0.8, count=60)
        metrics, ready = pipelined(fetches, drive, read_ahead=4)
        assert metrics.continuous
        start, period = ready[4], block.playback_duration
        # Every block displays exactly on its deadline: zero jitter.
        for i, arrival in enumerate(ready):
            deadline = start + i * period
            assert max(arrival, deadline) == pytest.approx(deadline)
        # Without forcing, arrival spacing varies (randomized rotation).
        gaps = {round(b - a, 6) for a, b in zip(ready, ready[1:])}
        assert len(gaps) > 1
