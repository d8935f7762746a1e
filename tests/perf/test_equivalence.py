"""The fast loop against the round model on every shape of load.

``tests/round_model.py`` states §3.4 round service plainly; here the
loop's folded-once ``ends`` column, its stored wake times and its
in-round idle waits serve whole loads — generated plans with silence holders,
zero-length blocks, tight buffers, per-stream k and mid-run joins; the
``scale`` microbench's own loads; SCAN order; a small LRU part of whose
slot pool is resident before the run; RECORD and best-effort text after
the turns — and must give the model's rounds, every stream's columns and
byte-identical ``ContinuityMetrics.summary`` lines.  The model reads a
twin of the loop's drive, so a read served out of turn costs the wrong
time.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk import BlockCache, CachedDrive
from repro.disk.factory import build_drive
from repro.errors import ParameterError
from repro.scenarios.loop import Scale
from repro.service import RecordStream, TextQueue, TextRequest
from tests.round_model import Stream
from tests.service.test_round_model import assert_twins_agree

pytestmark = pytest.mark.perf

DRIVE_SLOTS = build_drive().slots


def _plans(data, slots=st.integers(0, 10**6)):
    """Silence holders, zero-length blocks, tight buffers, per-stream k
    and mid-run admissions at any modeled time (None starts the run)."""
    plans = data.draw(st.lists(
        st.tuples(
            st.lists(st.tuples(
                st.one_of(st.none(), slots),
                st.sampled_from([0.0, 0.004, 0.03, 1 / 30, 0.2]),
            ), max_size=30),
            st.integers(1, 6),
            st.sampled_from([None, None, 1, 2, 5]),
            st.one_of(st.none(), st.floats(0.0, 4.0)),
        ),
        min_size=1, max_size=8,
    ), label="streams")
    return [
        Stream(
            f"s{number}",
            [None if slot is None else slot % DRIVE_SLOTS for slot, _ in blocks],
            [duration for _slot, duration in blocks],
            capacity, k_override, joins,
        )
        for number, (blocks, capacity, k_override, joins) in enumerate(plans)
    ]


def _uniform(streams, blocks, capacity, duration):
    """*streams* streams of *blocks* blocks of *duration* seconds each."""
    return [
        Stream(f"u{number}", list(range(1000 * number, 1000 * number + 5 * blocks, 5)),
               [duration] * blocks, capacity)
        for number in range(streams)
    ]


def _scale(scenario):
    """The ``scale`` microbench's streams, as the model's plain data."""
    initial, admissions = scenario.build_streams(build_drive())
    joins = [(None, s) for s in initial] + [
        (a.join, a.stream) for a in admissions
    ]
    return [
        Stream(s.request_id, s.fetches.slots, s.fetches.durations,
               s.buffer_capacity, s.k_override, joined)
        for joined, s in joins
    ]


def _cached(capacity, warm):
    def drive():
        cached = CachedDrive(build_drive(), BlockCache(capacity))
        for slot in warm:
            cached.read_slot(slot)
        return cached

    return drive


SCENARIOS = [
    Scale(
        label="uniform", streams=6, blocks_per_stream=50, k=4,
        buffer_capacity=6, seed=11,
    ),
    Scale(
        label="staggered", streams=6, blocks_per_stream=40, k=3,
        buffer_capacity=5, seed=4, arrivals="staggered",
    ),
    Scale(
        label="tight-buffers", streams=4, blocks_per_stream=60, k=5,
        buffer_capacity=2, seed=9,
    ),
]


class TestScaleScenario:
    """The microbench itself: seeded, complete, and self-validating."""

    def test_deterministic_across_runs(self):
        scenario = Scale(
            label="det", streams=5, blocks_per_stream=30, seed=2,
        )
        assert scenario.run().metrics() == scenario.run().metrics()

    def test_delivers_every_block(self):
        run = Scale(
            label="full", streams=4, blocks_per_stream=25,
            arrivals="staggered",
        ).run()
        assert run.metrics()["blocks_delivered"] == 4 * 25
        assert run.metrics()["rounds"] > 0
        assert run.healthy()

    def test_validation(self):
        with pytest.raises(ParameterError, match="streams must be >= 1"):
            Scale(label="bad", streams=0, blocks_per_stream=1)
        with pytest.raises(ParameterError, match="unknown drive config"):
            Scale(
                label="bad", streams=1, blocks_per_stream=1,
                drive="floppy",
            )
        with pytest.raises(ParameterError, match="unknown arrivals mode"):
            Scale(
                label="bad", streams=1, blocks_per_stream=1,
                arrivals="sideways",
            )


class TestServiceEquivalence:
    @pytest.mark.parametrize(
        "scenario", SCENARIOS, ids=[s.label for s in SCENARIOS]
    )
    def test_summaries_byte_identical(self, scenario):
        assert_twins_agree(_scale(scenario), lambda _r, _n: scenario.k)

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_generated_loads(self, data):
        """Full-buffer rounds of every shape."""
        k = data.draw(st.integers(1, 5), label="k")
        assert_twins_agree(_plans(data), lambda _r, _n: k)

    @settings(deadline=None, max_examples=40)
    @given(data=st.data())
    def test_generated_loads_in_scan_order(self, data):
        """The turns' order changes which streams' clocks a round's reads
        carry forward; each turn still answers for itself."""
        k = data.draw(st.integers(1, 5), label="k")
        assert_twins_agree(_plans(data), lambda _r, _n: k, scan=True)

    @settings(deadline=None, max_examples=40)
    @given(data=st.data())
    def test_generated_loads_through_a_cache(self, data):
        """Plans over a small slot pool read through a small LRU, part of
        the pool resident before the run: hits that cost nothing and
        misses that cost a seek mix within one turn."""
        k = data.draw(st.integers(1, 5), label="k")
        capacity = data.draw(st.integers(1, 8), label="cache blocks")
        warm = data.draw(
            st.lists(st.integers(0, 15), max_size=8), label="pre-warmed"
        )
        plans = _plans(data, slots=st.integers(0, 15))
        assert_twins_agree(plans, lambda _r, _n: k, drive=_cached(capacity, warm))

    def test_clock_starting_in_the_turn_that_fills_the_buffer(self):
        """k = capacity: each stream's first turn fills its buffer and
        starts its clock, so its wake is one block after the start (a
        wake even 5 ms late delays the next read)."""
        outcome = assert_twins_agree(_uniform(2, 40, 3, 0.2), lambda _r, _n: 3)
        for served in outcome.served.values():
            assert served.clock_start == served.ready[2]

    def test_blocks_playing_out_during_a_turns_reads(self):
        """0.004-s blocks play out faster than the testbed drive reads
        them, so a turn that filled the buffer as of its cursor answer
        ends with a wake already past: the lone stream's next turn is the
        next round, with no idle wait."""
        assert_twins_agree(_uniform(1, 40, 4, 0.004), lambda _r, _n: 4)

    def test_scan_order(self):
        scenario = SCENARIOS[1]
        assert_twins_agree(
            _scale(scenario), lambda _r, _n: scenario.k, scan=True
        )

    def test_record_and_text_after_the_turns(self):
        """Idle rounds whose text reads carry time past stored wakes."""

        def after(_drive):
            return [
                RecordStream(
                    "rec", list(range(3000, 3280, 7)), block_period=0.5,
                    staging_capacity=4,
                ),
                TextQueue([TextRequest("text", list(range(5000, 6200, 3)))]),
            ]

        streams = [
            Stream(f"play{n}", list(range(1000 * n, 1000 * n + 150, 5)),
                   [0.2] * 30, 2)
            for n in range(2)
        ]
        outcome = assert_twins_agree(streams, lambda _r, _n: 1, after=after)
        assert outcome.rounds_run > outcome.waits > 0

    def test_text_carrying_time_past_every_wake(self):
        """Text reads outlast the lone buffer's play-out: the next round
        serves the room the reads opened instead of waiting past it."""

        def after(drive):
            middle = drive.slots // 2
            return [TextQueue([TextRequest("text", list(range(middle, middle + 200)))])]

        outcome = assert_twins_agree(
            _uniform(1, 20, 2, 1 / 30), lambda _r, _n: 3, after=after
        )
        assert outcome.rounds_run == 13 and len(outcome.served["u0"].ready) == 20

    def test_cached_drive(self):
        """Cache hits cost nothing, so turns fill buffers in no time."""
        scenario = SCENARIOS[0]
        initial = _scale(scenario)
        first = initial[0]
        replays = [
            Stream(f"replay{n}", first.slots, first.durations, n + 2, None, 2 + 3 * n)
            for n in range(3)
        ]
        assert_twins_agree(
            initial + replays, lambda _r, _n: scenario.k,
            drive=lambda: CachedDrive(build_drive(), BlockCache(64)),
        )
