"""Unit tests for deterministic admission-batch grouping."""

import pytest

from repro.api import OpenSessionRequest
from repro.errors import ParameterError
from repro.rope import Media
from repro.server import group_into_batches

pytestmark = pytest.mark.server


def _open(client, rope, arrival, start=0.0):
    return OpenSessionRequest(
        client_id=client, rope_id=rope, arrival=arrival, start=start,
        media=Media.VIDEO,
    )


class TestGrouping:
    def test_same_interval_within_window_is_one_batch(self):
        requests = [
            _open("a", "R1", 0.00),
            _open("b", "R1", 0.10),
            _open("c", "R1", 0.20),
        ]
        batches = group_into_batches(requests, window=0.25)
        assert len(batches) == 1
        assert batches[0].leader.client_id == "a"
        assert [r.client_id for r in batches[0].requests[1:]] == ["b", "c"]
        assert batches[0].size == 3

    def test_window_measured_from_the_leader(self):
        requests = [
            _open("a", "R1", 0.0),
            _open("b", "R1", 0.2),
            _open("c", "R1", 0.3),  # 0.3 > window from leader a
        ]
        batches = group_into_batches(requests, window=0.25)
        assert [b.leader.client_id for b in batches] == ["a", "c"]

    def test_different_ropes_never_share_a_batch(self):
        requests = [_open("a", "R1", 0.0), _open("b", "R2", 0.0)]
        assert len(group_into_batches(requests, window=1.0)) == 2

    def test_different_intervals_never_share_a_batch(self):
        requests = [
            _open("a", "R1", 0.0, start=0.0),
            _open("b", "R1", 0.0, start=1.0),
        ]
        assert len(group_into_batches(requests, window=1.0)) == 2

    def test_arrival_order_decides_leadership_not_submission(self):
        requests = [_open("late", "R1", 0.2), _open("early", "R1", 0.0)]
        batches = group_into_batches(requests, window=1.0)
        assert len(batches) == 1
        assert batches[0].leader.client_id == "early"
        assert batches[0].admit_time == 0.0

    def test_disabled_or_zero_window_is_per_request(self):
        requests = [_open("a", "R1", 0.0), _open("b", "R1", 0.0)]
        # A server with batching off passes a zero window.
        assert len(group_into_batches(requests, window=0.0)) == 2

    def test_batches_ordered_by_admit_time(self):
        requests = [
            _open("c", "R2", 0.5),
            _open("a", "R1", 0.0),
            _open("b", "R1", 0.1),
        ]
        batches = group_into_batches(requests, window=0.25)
        assert [b.admit_time for b in batches] == [0.0, 0.5]

    def test_negative_window_refused(self):
        with pytest.raises(ParameterError):
            group_into_batches([], window=-0.1)

    def test_grouping_is_deterministic(self):
        requests = [
            _open(f"c{i}", f"R{i % 3}", (i * 7 % 5) / 10.0)
            for i in range(20)
        ]
        first = group_into_batches(requests, window=0.25)
        second = group_into_batches(requests, window=0.25)
        assert [
            [r.client_id for r in b.requests] for b in first
        ] == [[r.client_id for r in b.requests] for b in second]
