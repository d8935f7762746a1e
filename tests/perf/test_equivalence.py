"""Behavioral equivalence: the fast paths change nothing observable.

A ``ReferenceStreamState`` keeps no ``ends`` column and stores no wake
time: every read of ``ends`` refolds the whole ``ready`` column, and the
wake is recomputed from that fold on every read — when the buffer next
has room, so a stream with room at the loop's time wakes at it — the
pre-optimization semantics, kept alive here as the oracle.  Whole
service runs through the folded-once column and the stored wake times
must produce byte-identical :meth:`ContinuityMetrics.summary` lines,
identical delivery schedules and play-out ends, and byte-identical
observability snapshots.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.service.session as session_module
from repro.disk import BlockCache, CachedDrive
from repro.disk.factory import build_drive
from repro.errors import ParameterError
from repro.rope.server import FetchColumns
from repro.scenarios import get
from repro.scenarios.loop import Scale
from repro.service import RecordStream, TextQueue, TextRequest
from repro.service.rounds import Admission, RoundRobinService, StreamState
from repro.service.scan_order import scan_order
from tests.reference import playout_ends

pytestmark = pytest.mark.perf


class ReferenceStreamState(StreamState):
    """No stored column, no stored wake: ``ends`` is a full rescan of the
    delivery schedule per read, and the wake is the end of the block
    whose play-out gives a full buffer room (-inf while it has room
    without one) — so no turn with room is skipped, and an idle round
    whose after-turn work carried time past that end serves it next."""

    ends = property(
        lambda self: [] if self.clock_start is None else playout_ends(
            self.ready, self.fetches.durations, self.clock_start
        ),
        lambda self, value: None,
    )

    @property
    def _wake(self) -> float:
        full = len(self.ready) - self.buffer_capacity
        return self.ends[full] if full >= 0 else float("-inf")

    @_wake.setter
    def _wake(self, value) -> None:
        pass


def _run(
    stream_cls, load, k_schedule, drive=build_drive,
    policies=lambda _drive: {},
):
    """Serve *load(drive)*'s ``(initial, admissions)``, rebuilt as
    *stream_cls*, on a fresh *drive()* with ``policies(drive)`` for the
    loop; returns everything the two implementations must agree on."""
    drive = drive()
    initial, admissions = load(drive)

    def convert(stream):
        return stream_cls(
            request_id=stream.request_id,
            fetches=stream.fetches,
            buffer_capacity=stream.buffer_capacity,
            k_override=stream.k_override,
        )

    initial = [convert(s) for s in initial]
    admissions = [
        Admission(round_number=a.round_number, stream=convert(a.stream))
        for a in admissions
    ]
    service = RoundRobinService(drive, k_schedule, **policies(drive))
    metrics = service.run(initial, admissions)
    streams = initial + [a.stream for a in admissions]
    return (
        service.rounds_run,
        {rid: m.summary() for rid, m in sorted(metrics.items())},
        [(s.ready, s.ends, s.clock_start, s.skipped_indices)
         for s in streams],
    )


def assert_equivalent(load, k_schedule, **options):
    fast = _run(StreamState, load, k_schedule, **options)
    assert fast == _run(ReferenceStreamState, load, k_schedule, **options)
    return fast


def _plans(data, slots=st.integers(0, 10**6)):
    """Silence holders, zero-length blocks, tight buffers, per-stream k
    and mid-run admissions: ``(blocks, capacity, k_override, joins)``."""
    return data.draw(st.lists(
        st.tuples(
            st.lists(st.tuples(
                st.one_of(st.none(), slots),
                st.sampled_from([0.0, 0.004, 0.03, 1 / 30, 0.2]),
            ), max_size=30),
            st.integers(1, 6),
            st.sampled_from([None, None, 1, 2, 5]),
            st.integers(0, 12),
        ),
        min_size=1, max_size=8,
    ), label="streams")


def _load_of(plans):
    """The ``load`` for *plans*: streams joining at round 0 start it."""

    def load(drive):
        initial, admissions = [], []
        for number, (blocks, capacity, k_override, joins) in enumerate(plans):
            slots = [
                None if slot is None else slot % drive.slots
                for slot, _duration in blocks
            ]
            stream = StreamState(
                request_id=f"s{number}",
                fetches=FetchColumns(
                    slots, [drive.block_bits] * len(slots),
                    [duration for _slot, duration in blocks],
                ),
                buffer_capacity=capacity, k_override=k_override,
            )
            if joins:
                admissions.append(Admission(joins, stream))
            else:
                initial.append(stream)
        return initial, admissions

    return load


def _uniform_load(streams, blocks, capacity, duration):
    """*streams* streams of *blocks* blocks of *duration* seconds each."""

    def load(drive):
        return [
            StreamState(
                request_id=f"u{number}", buffer_capacity=capacity,
                fetches=FetchColumns.uniform(
                    range(1000 * number, 1000 * number + 5 * blocks, 5),
                    drive.block_bits, duration,
                ),
            )
            for number in range(streams)
        ], []

    return load


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
        assert_equivalent(scenario.build_streams, lambda _r, _n: scenario.k)

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_generated_loads(self, data):
        """Full-buffer rounds of every shape."""
        k = data.draw(st.integers(1, 5), label="k")
        assert_equivalent(_load_of(_plans(data)), lambda _r, _n: k)

    @settings(deadline=None, max_examples=40)
    @given(data=st.data())
    def test_generated_loads_in_scan_order(self, data):
        """The turns' order changes which streams' clocks a round's reads
        carry forward; each turn still answers for itself."""
        k = data.draw(st.integers(1, 5), label="k")
        assert_equivalent(
            _load_of(_plans(data)), lambda _r, _n: k,
            policies=lambda _drive: {"order": scan_order},
        )

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

        def cached_drive():
            cached = CachedDrive(build_drive(), BlockCache(capacity))
            for slot in warm:
                cached.read_slot(slot)
            return cached

        assert_equivalent(_load_of(plans), lambda _r, _n: k, drive=cached_drive)

    def test_clock_starting_in_the_turn_that_fills_the_buffer(self):
        """k = capacity: each stream's first turn fills its buffer and
        starts its clock, so its wake is one block after the start (a
        wake even 5 ms late delays the next read)."""
        _rounds, _summaries, streams = assert_equivalent(
            _uniform_load(2, 40, 3, 0.2), lambda _r, _n: 3
        )
        for ready, _ends, clock_start, _skipped in streams:
            assert clock_start == ready[2]

    def test_blocks_playing_out_during_a_turns_reads(self):
        """0.004-s blocks play out faster than the testbed drive reads
        them, so a turn that filled the buffer as of its cursor answer
        ends with a wake already past: the lone stream's next turn is the
        next round, with no idle wait."""
        assert_equivalent(_uniform_load(1, 40, 4, 0.004), lambda _r, _n: 4)

    def test_scan_order(self):
        scenario = SCENARIOS[1]
        assert_equivalent(
            scenario.build_streams, lambda _r, _n: scenario.k,
            policies=lambda _drive: {"order": scan_order},
        )

    def test_record_and_text_after_the_turns(self):
        """Idle rounds whose text reads carry time past stored wakes."""

        def load(drive):
            return [
                StreamState(
                    request_id=f"play{number}", buffer_capacity=2,
                    fetches=FetchColumns.uniform(
                        range(1000 * number, 1000 * number + 150, 5),
                        drive.block_bits, 0.2,
                    ),
                )
                for number in range(2)
            ], []

        def policies(drive):
            return {"after_turns": [
                RecordStream(
                    "rec", list(range(3000, 3280, 7)), block_period=0.5,
                    staging_capacity=4,
                ),
                TextQueue([TextRequest("text", list(range(5000, 6200, 3)))]),
            ]}

        rounds, summaries, _streams = assert_equivalent(
            load, lambda _r, _n: 1, policies=policies
        )
        assert "rec" in summaries and rounds > 0

    def test_text_carrying_time_past_every_wake(self):
        """Text reads outlast the lone buffer's play-out: the idle round
        serves the room the reads opened instead of waiting past it."""
        rounds, summaries, _streams = assert_equivalent(
            _uniform_load(1, 20, 2, 1 / 30), lambda _r, _n: 3,
            policies=lambda drive: {"after_turns": [TextQueue([TextRequest(
                "text", list(range(drive.slots // 2, drive.slots // 2 + 200))
            )])]},
        )
        assert rounds == 14 and "delivered=20" in summaries["u0"]

    def test_cached_drive(self):
        """Cache hits cost nothing, so turns fill buffers in no time."""
        scenario = SCENARIOS[0]

        def load(drive):
            initial, _ = scenario.build_streams(drive)
            shared = initial[0].fetches
            replays = [
                StreamState(
                    request_id=f"replay{number}", fetches=shared,
                    buffer_capacity=number + 2,
                )
                for number in range(3)
            ]
            return initial, [
                Admission(2 + 3 * number, stream)
                for number, stream in enumerate(replays)
            ]

        assert_equivalent(
            load, lambda _r, _n: scenario.k,
            drive=lambda: CachedDrive(build_drive(), BlockCache(64)),
        )


class TestObservedEquivalence:
    def test_steady_snapshot_unchanged_by_cursor(self, monkeypatch):
        fast = get("steady")(seconds=2.0).run().snapshot()
        monkeypatch.setattr(
            session_module, "StreamState", ReferenceStreamState
        )
        reference = get("steady")(seconds=2.0).run().snapshot()
        assert fast == reference

    def test_fault_snapshot_unchanged_by_cursor(self, monkeypatch):
        fast = get("fault")(seconds=2.0).run().snapshot()
        monkeypatch.setattr(
            session_module, "StreamState", ReferenceStreamState
        )
        reference = get("fault")(seconds=2.0).run().snapshot()
        assert fast == reference
