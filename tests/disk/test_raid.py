"""Unit tests for the multi-head drive array.

The array addresses its members; the one stripe timing is the concurrent
replayer's, so the read tests run ``simulate_concurrent`` on it.
"""

import pytest

from repro.disk import DriveArray, build_array, build_drive
from repro.errors import ParameterError
from repro.rope.server import BlockFetch
from repro.service import simulate_concurrent, simulate_pipelined


@pytest.fixture
def array():
    return build_array(heads=4)


def fetches(slots):
    return [BlockFetch(slot=slot, bits=None, duration=1.0) for slot in slots]


class TestStriping:
    def test_round_robin(self, array):
        simulate_concurrent(fetches([0] * 12), array)
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
        _, ready = simulate_concurrent(fetches([0, far]), array)
        assert ready == [pytest.approx(expected)] * 2

    def test_member_out_of_range(self, array):
        with pytest.raises(ParameterError):
            array.member(4)


class TestStripedRun:
    def test_parallel_run_faster_than_serial(self):
        array = build_array(heads=4)
        serial = build_drive()
        slots = list(range(0, 64, 4))
        _, serial_ready = simulate_pipelined(fetches(slots), serial)
        _, parallel_ready = simulate_concurrent(fetches(slots), array)
        assert parallel_ready[-1] < serial_ready[-1]

    def test_parameters_report_heads(self, array):
        params = array.parameters()
        assert params.heads == 4
        base = array.member(0).parameters()
        assert params.transfer_rate == base.transfer_rate
