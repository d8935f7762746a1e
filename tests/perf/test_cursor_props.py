"""Hypothesis: the consumption cursor equals the reference rescan.

Randomized delivery schedules (a ``ready`` column and the plan's
durations), randomized clock starts, and randomized — deliberately
non-monotone — query
sequences: for every query, ``consumed_at`` / ``buffered_at`` /
``next_consumption_time`` through the cached cursor must equal a fresh
O(n) rescan of the same schedule.  The non-monotone queries force the
cursor's cold fallback path; interleaved monotone runs exercise the
amortized advance.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rope.server import FetchColumns
from repro.service.rounds import StreamState
from repro.sim.metrics import consumed_prefix

pytestmark = pytest.mark.perf

times = st.floats(
    min_value=0.0, max_value=200.0,
    allow_nan=False, allow_infinity=False,
)
durations = st.floats(
    min_value=0.0, max_value=10.0,
    allow_nan=False, allow_infinity=False,
)

schedules = st.lists(st.tuples(times, durations), max_size=40)
queries = st.lists(
    st.floats(
        min_value=0.0, max_value=500.0,
        allow_nan=False, allow_infinity=False,
    ),
    min_size=1, max_size=60,
)


def _reference_next_consumption(ready, durations, start, now):
    count, elapsed = consumed_prefix(ready, durations, start, now)
    if count >= len(ready):
        return math.inf
    return max(elapsed, ready[count]) + durations[count]


def _stream_with(schedule, clock_start=None):
    """A stream whose ``ready`` column and plan durations are *schedule*'s
    (the two columns every consumption query reads)."""
    stream = StreamState(
        request_id="prop", buffer_capacity=1,
        fetches=FetchColumns(
            [None] * len(schedule), [0.0] * len(schedule),
            [duration for _ready, duration in schedule],
        ),
    )
    stream.ready = [ready for ready, _duration in schedule]
    stream.clock_start = clock_start
    return stream


class TestCursorMatchesReference:
    @settings(deadline=None, max_examples=200)
    @given(schedule=schedules, clock_start=times, now_values=queries)
    def test_arbitrary_query_order(
        self, schedule, clock_start, now_values
    ):
        stream = _stream_with(schedule, clock_start)
        ready, lengths = stream.ready, stream.fetches.durations
        for now in now_values:
            expect_count, _ = consumed_prefix(
                ready, lengths, clock_start, now
            )
            assert stream.consumed_at(now) == expect_count
            assert stream.buffered_at(now) == len(ready) - expect_count
            assert stream.next_consumption_time(now) == (
                _reference_next_consumption(
                    ready, lengths, clock_start, now
                )
            )

    @settings(deadline=None, max_examples=100)
    @given(schedule=schedules, clock_start=times, now_values=queries)
    def test_monotone_query_order(
        self, schedule, clock_start, now_values
    ):
        stream = _stream_with(schedule, clock_start)
        for now in sorted(now_values):
            expect_count, _ = consumed_prefix(
                stream.ready, stream.fetches.durations, clock_start, now
            )
            assert stream.consumed_at(now) == expect_count

    @settings(deadline=None, max_examples=50)
    @given(schedule=schedules, now_values=queries)
    def test_unstarted_clock_consumes_nothing(self, schedule, now_values):
        stream = _stream_with(schedule)
        for now in now_values:
            assert stream.consumed_at(now) == 0
            assert stream.buffered_at(now) == len(stream.ready)
            assert stream.next_consumption_time(now) == math.inf
