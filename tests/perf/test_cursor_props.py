"""Hypothesis: consumption read from the ``ends`` column equals the
reference rescan.

Randomized delivery schedules (a ``ready`` column and the plan's
durations), randomized clock starts, and randomized — deliberately
non-monotone — query sequences: for every query, one bisect of the
stream's play-out ends — the blocks played, the clock after them and
when the next one ends — must equal a fresh O(n) rescan of the same
schedule.  Ties, zero-length
blocks and blocks landing after the previous one ended are all drawn.
That the loop folds ``ends`` as the reference does is pinned by the
equivalence and scoring-reference suites.
"""

import math
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rope.server import FetchColumns
from repro.service.rounds import StreamState
from tests.reference import consumed_prefix, playout_ends

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


def _consumption(stream, now):
    """``(blocks played, clock after them, when the next one ends)`` at
    *now*, from one bisect of the stream's ``ends`` column."""
    ends = stream.ends
    count = bisect_right(ends, now)
    elapsed = ends[count - 1] if count else stream.clock_start or 0.0
    return count, elapsed, ends[count] if count < len(ends) else math.inf


def _stream_with(schedule, clock_start=None):
    """A stream whose ``ready`` column and plan durations are *schedule*'s,
    its ``ends`` column folded as the loop folds it once the clock runs."""
    stream = StreamState(
        request_id="prop", buffer_capacity=1,
        fetches=FetchColumns(
            [None] * len(schedule), [0.0] * len(schedule),
            [duration for _ready, duration in schedule],
        ),
    )
    stream.ready = [ready for ready, _duration in schedule]
    stream.clock_start = clock_start
    if clock_start is not None:
        stream.ends = playout_ends(
            stream.ready, stream.fetches.durations, clock_start
        )
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
            count, elapsed, following = _consumption(stream, now)
            assert (count, elapsed) == consumed_prefix(
                ready, lengths, clock_start, now
            )
            assert following == _reference_next_consumption(
                ready, lengths, clock_start, now
            )

    @settings(deadline=None, max_examples=100)
    @given(schedule=schedules, clock_start=times, now_values=queries)
    def test_monotone_query_order(
        self, schedule, clock_start, now_values
    ):
        stream = _stream_with(schedule, clock_start)
        for now in sorted(now_values):
            assert _consumption(stream, now)[:2] == consumed_prefix(
                stream.ready, stream.fetches.durations, clock_start, now
            )

    @settings(deadline=None, max_examples=50)
    @given(schedule=schedules, now_values=queries)
    def test_unstarted_clock_consumes_nothing(self, schedule, now_values):
        stream = _stream_with(schedule)
        for now in now_values:
            assert _consumption(stream, now) == (0, 0.0, math.inf)
