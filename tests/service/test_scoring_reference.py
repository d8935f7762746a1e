"""The one scorer against the round model's score.

``ContinuityMetrics.score`` makes one pass over a stream's ``ready``
column when the run is over.  ``tests/round_model.py::score`` states
§3.1's verdict on the same columns plainly: each block due at ``clock
start + offset i``, a late or skipped block a miss, the high-water
sampled as each block after the read-ahead lands.  The two must agree
to the last bit: the ``summary()`` line, the mean lateness and the
jitter.
"""

from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk import build_drive
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.rope.server import FetchColumns
from repro.service import play_single, transform_plan
from repro.service.rounds import Admission, RoundRobinService, StreamState
from repro.sim.metrics import ContinuityMetrics
from tests.round_model import Served, score
from tests.service.test_round_model import summary


def assert_scores_like_model(
    metrics, ready, durations, start, skipped, prefix, join=0.0
):
    """*metrics* is the model's score of the columns ``ready`` (the first
    *prefix* of which landed before the clock started at *start*) of a
    stream that joined at *join*."""
    expected = score(
        Served(list(ready), start, prefix, join=join), durations, skipped
    )
    assert metrics.summary() == summary(metrics.request_id, expected)
    total = 0.0
    for late in expected.lateness:
        total += late
    if expected.lateness:
        assert metrics.mean_lateness == total / len(expected.lateness)
        assert metrics.jitter == max(expected.lateness) - min(expected.lateness)
    else:
        assert metrics.mean_lateness == 0.0 and metrics.jitter == 0.0


def loop_deadlines(durations, start):
    """The round loop's association: ``start + offsets[i]``."""
    offset = 0.0
    for duration in durations:
        yield start + offset
        offset += duration


#: Steps between landings (0: a silence holder, or a cache hit, lands
#: with the block before it) and playback lengths (0: a silence block).
steps = st.sampled_from([0.0, 0.0, 0.004, 0.0125, 0.03, 0.2, 1.5])
lengths = st.sampled_from([0.0, 0.02, 1 / 30, 0.05, 0.1])


@st.composite
def traces(draw):
    blocks = draw(st.lists(st.tuples(steps, lengths), min_size=1, max_size=50))
    ready, time = [], draw(steps)
    for step, _length in blocks:
        time += step
        ready.append(time)
    durations = [length for _step, length in blocks]
    prefix = draw(st.integers(min_value=1, max_value=len(blocks)))
    skipped = draw(st.sets(st.integers(0, len(blocks) - 1), max_size=6))
    return ready, durations, prefix, skipped


class TestScorerMatchesPerBlockScoring:
    @settings(deadline=None, max_examples=300)
    @given(trace=traces())
    def test_generated_delivery_traces(self, trace):
        """Skips, stalls behind late blocks, zero-length blocks, blocks
        landing at the same instant, and any pre-start prefix."""
        ready, durations, prefix, skipped = trace
        start = ready[prefix - 1]   # the clock starts as the prefix lands
        metrics = ContinuityMetrics(startup_latency=start)
        metrics.score(
            ready, loop_deadlines(durations, start),
            Served(ready, start).ends(durations), skipped, prefix,
        )
        assert_scores_like_model(
            metrics, ready, durations, start, skipped, prefix
        )

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_generated_service_runs(self, data):
        """Whole runs of the loop: several streams, silence holders,
        per-stream k and buffers (regulation stalls), media defects
        (skips) and mid-run admissions."""
        drive = build_drive()
        k = data.draw(st.sampled_from([1, 2, 3, 5, 9]), label="k")
        streams, stored = [], []
        for number in range(data.draw(st.integers(1, 5), label="streams")):
            blocks = data.draw(st.lists(
                st.tuples(
                    st.one_of(st.none(), st.integers(0, drive.slots - 1)),
                    lengths,
                ),
                max_size=40,
            ), label=f"plan {number}")
            slots = [slot for slot, _length in blocks]
            stored += [slot for slot in slots if slot is not None]
            streams.append(StreamState(
                request_id=f"s{number}",
                fetches=FetchColumns(
                    slots, [2.0e5] * len(slots),
                    [length for _slot, length in blocks],
                ),
                buffer_capacity=data.draw(st.integers(1, 12)),
                k_override=data.draw(st.sampled_from([None, None, 1, 4])),
            ))
        if stored:
            defects = data.draw(
                st.lists(st.sampled_from(stored), max_size=4), label="defects"
            )
            drive.attach_injector(FaultInjector(FaultPlan([
                FaultSpec(kind=FaultKind.MEDIA_DEFECT, slot=slot)
                for slot in defects
            ])))
        joining = data.draw(st.integers(0, len(streams) - 1), label="joining")
        admissions = [
            Admission(data.draw(st.floats(0.0, 20.0)), stream)
            for stream in streams[len(streams) - joining:]
        ]
        joins = {a.stream.request_id: a.join for a in admissions}
        initial = streams[:len(streams) - joining]
        RoundRobinService(drive, lambda _round, _active: k).run(
            initial, admissions
        )
        for stream in streams:
            durations = stream.fetches.durations
            assert len(stream.ready) == len(durations)
            if not durations:
                assert stream.metrics.summary() == ContinuityMetrics(
                    request_id=stream.request_id
                ).summary()
                continue
            # A stream's first turn is its read-ahead and starts its clock.
            prefix = min(
                stream.k_override or k, stream.buffer_capacity, len(durations)
            )
            assert stream.clock_start == stream.ready[prefix - 1]
            assert stream.ends == Served(
                stream.ready, stream.clock_start
            ).ends(durations)
            assert_scores_like_model(
                stream.metrics, stream.ready, durations,
                stream.clock_start, stream.skipped_indices, prefix,
                joins.get(stream.request_id, 0.0),
            )


class TestHighWaterRule:
    """High-water counts only blocks that land after the clock started."""

    @staticmethod
    def _plan(blocks):
        return FetchColumns.uniform(range(0, 40 * blocks, 40), 2.0e5, 1 / 30)

    def test_a_stream_delivered_whole_in_its_first_turn_reports_zero(self):
        drive = build_drive()
        stream = StreamState(
            request_id="whole", fetches=self._plan(8),
            buffer_capacity=16,
        )
        metrics = RoundRobinService(drive, lambda r, n: 8).run([stream])
        assert stream.clock_start == stream.ready[-1]
        assert metrics["whole"].blocks_delivered == 8
        assert metrics["whole"].buffer_high_water == 0

    def test_later_turns_count_what_is_still_buffered(self):
        drive = build_drive()
        stream = StreamState(
            request_id="two", fetches=self._plan(8),
            buffer_capacity=16,
        )
        metrics = RoundRobinService(drive, lambda r, n: 4).run([stream])
        assert stream.clock_start == stream.ready[3]
        assert 1 <= metrics["two"].buffer_high_water <= 8

    def test_a_single_request_counts_what_lands_after_its_read_ahead(self):
        """§3.1's architectures play on the loop, under its one rule."""
        drive = build_drive()
        plan = self._plan(8)
        stream = play_single(plan, drive, read_ahead=2)
        assert stream.clock_start == stream.ready[2]
        expected = score(Served(stream.ready, stream.clock_start, 3),
                         plan.durations)
        assert stream.metrics.buffer_high_water == expected.high_water >= 1

    def test_trick_play_counts_what_lands_after_its_first_block(self):
        """At k = 1 the read-ahead is the first block: a one-block plan
        is delivered whole in its first turn and reports zero."""
        drive = build_drive()
        stream = play_single(
            transform_plan(self._plan(1), 1.0), drive, buffer_capacity=4
        )
        assert stream.clock_start == stream.ready[0]
        assert stream.metrics.buffer_high_water == 0


class TestOnlyLandedBlocksAreConsumed:
    """Consumption as block i lands considers blocks 0..i only."""

    def test_the_fold_stops_at_the_last_landed_block(self):
        # Three zero-length blocks are planned; one has landed.
        ends = Served([0.0], 0.0).ends([0.0, 0.0, 0.0])
        assert (bisect_right(ends, 5.0), ends[-1]) == (1, 0.0)

    def test_blocks_landing_at_one_instant_are_buffered_in_turn(self):
        """Blocks 1–3 land together as block 0 ends; 1 and 2 are
        zero-length, 3 is not: each sample sees only what has landed."""
        ready, durations = [0.0, 1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.5]
        metrics = ContinuityMetrics()
        metrics.score(
            ready, loop_deadlines(durations, 0.0),
            Served(ready, 0.0).ends(durations), (), 1,
        )
        assert metrics.buffer_high_water == 1
        assert_scores_like_model(metrics, ready, durations, 0.0, set(), 1)

    @pytest.mark.parametrize("capacity", [1, 3])
    def test_the_loop_never_reports_a_negative_buffer(self, capacity):
        drive = build_drive()
        stream = StreamState(
            request_id="silent", buffer_capacity=capacity,
            fetches=FetchColumns([None] * 6, [0.0] * 6, [0.0] * 6),
        )
        RoundRobinService(drive, lambda r, n: 2).run([stream])
        consumed = bisect_right(stream.ends, 0.0)
        assert len(stream.ready) - consumed == 0 == stream.metrics.buffer_high_water
