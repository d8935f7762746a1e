"""Unit tests for the multi-head drive array.

The array addresses its members; the one stripe timing is
``StripedReads``, the array as the round loop reads it, so the read
tests play plans on it (``play_single``).
"""

import pytest

from repro.disk import DriveArray, build_array, build_drive
from repro.errors import ParameterError
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.rope.server import BlockFetch
from repro.service import play_single


@pytest.fixture
def array():
    return build_array(heads=4)


def fetches(slots):
    return [BlockFetch(slot=slot, bits=None, duration=1.0) for slot in slots]


def concurrent(slots, array):
    return play_single(fetches(slots), array, read_ahead=array.heads - 1)


class TestStriping:
    def test_round_robin(self, array):
        concurrent([0] * 12, array)
        assert [member.stats.reads for member in array.drives] == [3] * 4

    def test_heads(self, array):
        assert array.heads == 4

    def test_uniform_block_size_required(self):
        a = build_drive(sectors_per_block=64)
        b = build_drive(sectors_per_block=32)
        with pytest.raises(ParameterError):
            DriveArray([a, b])

    def test_empty_array_rejected(self):
        with pytest.raises(ParameterError):
            DriveArray([])


class TestBatchReads:
    def test_batch_duration_is_slowest_member(self, array):
        for member in array.drives:
            member.park(0)
        far = array.member(1).slots - 1
        single_far = build_drive()
        single_far.park(0)
        expected = single_far.read_slot(far)
        stream = concurrent([0, far], array)
        assert stream.ready == [pytest.approx(expected)] * 2

    def test_member_out_of_range(self, array):
        with pytest.raises(ParameterError):
            array.member(4)


class TestStripedRun:
    def test_parallel_run_faster_than_serial(self):
        array = build_array(heads=4)
        serial = build_drive()
        slots = list(range(0, 64, 4))
        serial_ready = play_single(fetches(slots), serial).ready
        parallel_ready = concurrent(slots, array).ready
        assert parallel_ready[-1] < serial_ready[-1]

    def test_parameters_report_heads(self, array):
        params = array.parameters()
        assert params.heads == 4
        base = array.member(0).parameters()
        assert params.transfer_rate == base.transfer_rate


def attach(array, member, *specs):
    array.member(member).attach_injector(
        FaultInjector(FaultPlan(specs), drive_index=member)
    )


class TestStripesUnderFaults:
    """Recovery is the loop's own, block by block: each block names its
    member, so a retry or a give-up stays on that member."""

    SLOTS = list(range(0, 160, 10))   # 16 blocks: four stripes of four

    def test_a_dead_head_loses_its_share_of_every_later_stripe(self, array):
        # Member 1's second access (block 5) kills its head.
        attach(array, 1, FaultSpec(FaultKind.HEAD_FAILURE, at_op=1))
        stream = concurrent(self.SLOTS, array)
        assert stream.skipped_indices == {5, 9, 13}
        assert [member.stats.reads for member in array.drives] == [4, 1, 4, 4]
        assert stream.metrics.skips == 3
        assert stream.metrics.blocks_delivered == 13

    def test_a_transient_is_retried_on_its_member_alone(self, array):
        # Block 6 (member 2, slot 60) fails once, then reads.
        attach(array, 2, FaultSpec(FaultKind.TRANSIENT, slot=60))
        stream = concurrent(self.SLOTS, array)
        assert not stream.skipped_indices
        assert stream.metrics.blocks_delivered == 16
        assert [m.stats.retries for m in array.drives] == [0, 0, 1, 0]
        assert [m.stats.degraded_reads for m in array.drives] == [0, 0, 1, 0]
        assert [m.stats.reads for m in array.drives] == [4] * 4
        # Blocks 4 and 5 land with the stripe's first reads; the retry
        # holds back block 6 and the block behind it.
        clean = concurrent(self.SLOTS, build_array(heads=4))
        assert stream.ready[:6] == clean.ready[:6]
        assert stream.ready[6] == stream.ready[7] > clean.ready[7]
