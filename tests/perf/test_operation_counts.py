"""Operation-count invariants: the O(1) fast paths stay O(1).

These tests wrap the hot-path collaborators with counting proxies and
assert *how much work* a service run performs, not just what it returns:

* each landed block enters its stream's ``ends`` column once, and a turn
  answers consumption with at most one bisect of it — none while the
  stream sleeps on its stored wake;
* a round in which every buffer is full is counted without a
  ``_run_round`` pass, unless something watches the loop;
* :class:`TableSeek` interpolates each distance once, ever;
* the generic ``max_distance_within`` binary search runs once per
  distinct ``(budget, cylinders)`` pair;
* :meth:`SimulatedDrive.read_slot` evaluates the seek curve once per
  distinct distance and enters one frame below itself;
* capturing video and recording it constructs no ``Frame``.

If a future change quietly reintroduces a rescan or a per-access
recomputation, these counters move and the suite fails — the perf
guarantee is pinned behaviorally, without timing flakiness.
"""

import sys

import pytest

import repro.service.rounds as rounds_module
from repro.disk.factory import TESTBED_DRIVE, build_drive
from repro.disk.seek import LinearSeek, SeekModel, TableSeek
from repro.obs import Observability
from repro.rope.server import FetchColumns
from repro.scenarios.loop import Scale
from repro.service.rounds import RoundRobinService, StreamState

pytestmark = pytest.mark.perf


class CountingSeek(SeekModel):
    """Delegating seek-curve wrapper that counts :meth:`seek_time` calls."""

    def __init__(self, inner: SeekModel):
        self.inner = inner
        self.seek_time_calls = 0

    def seek_time(self, distance: int) -> float:
        self.seek_time_calls += 1
        return self.inner.seek_time(distance)


class CountingTableSeek(TableSeek):
    """TableSeek that counts actual (uncached) interpolations."""

    def __init__(self, points):
        super().__init__(points)
        self.interpolations = 0

    def _interpolate_seek_time(self, distance: int) -> float:
        self.interpolations += 1
        return super()._interpolate_seek_time(distance)


def _service_run(streams=8, blocks=60, obs=None, prepare=None, **policies):
    """Serve the `scale` load; *prepare*, if given, first sees every
    stream the run will serve."""
    scenario = Scale(
        label="count", streams=streams, blocks_per_stream=blocks,
        k=4, buffer_capacity=6, seed=7,
    )
    drive = build_drive()
    initial, admissions = scenario.build_streams(drive)
    if prepare is not None:
        prepare(initial + [admission.stream for admission in admissions])
    service = RoundRobinService(
        drive, lambda _r, _n: scenario.k, obs=obs, **policies
    )
    metrics = service.run(initial, admissions)
    return metrics, streams * blocks


class TestPolicyPointsOffByDefault:
    """A request-path loop is built with neither policy point set, and
    then replays the `scale` load exactly as the loop did before the
    points existed (the digest is the parent commit's)."""

    PARENT = "dd9dc532a0e60b9c63c4e7470da2c1587e3b3432c9c6641f714937ff52857669"

    @pytest.mark.parametrize(
        "policies", [{}, {"order": None, "after_turns": ()}],
        ids=["default", "explicit"],
    )
    def test_no_order_no_after_turn_work_is_the_parent_run(self, policies):
        import hashlib

        metrics, _ = _service_run(**policies)
        text = "\n".join(m.summary() for _rid, m in sorted(metrics.items()))
        assert hashlib.sha256(text.encode()).hexdigest() == self.PARENT


class TestObsOffFastPath:
    """With observability off, the service loop does zero obs work.

    The obs-off configuration (``obs=None``) must not construct spans,
    timeline tallies, or metric instruments anywhere on the hot path —
    not merely discard them.  Counting proxies on the class methods pin
    that the calls never happen, so the fast path stays allocation-free
    regardless of how the gated branches evolve.
    """

    def test_obs_off_run_performs_no_obs_operations(self, monkeypatch):
        from repro.obs.registry import MetricsRegistry
        from repro.obs.timeline import SessionTimeline
        from repro.obs.tracing import SpanTracer

        calls = {"span": 0, "timeline": 0, "counter": 0, "histogram": 0}

        def counting(kind, inner):
            def wrapper(self, *args, **kwargs):
                calls[kind] += 1
                return inner(self, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            SpanTracer, "start_span",
            counting("span", SpanTracer.start_span),
        )
        monkeypatch.setattr(
            SessionTimeline, "add",
            counting("timeline", SessionTimeline.add),
        )
        monkeypatch.setattr(
            MetricsRegistry, "counter",
            counting("counter", MetricsRegistry.counter),
        )
        monkeypatch.setattr(
            MetricsRegistry, "histogram",
            counting("histogram", MetricsRegistry.histogram),
        )

        metrics, total_blocks = _service_run()
        assert sum(m.blocks_delivered for m in metrics.values()) == (
            total_blocks
        )
        assert calls == {
            "span": 0, "timeline": 0, "counter": 0, "histogram": 0,
        }, f"obs-off service run still did obs work: {calls}"

    @pytest.mark.parametrize(
        "obs", [None, Observability(enabled=False)], ids=["none", "disabled"]
    )
    def test_obs_off_builds_no_recorder_and_formats_nothing(
        self, monkeypatch, obs
    ):
        """No observer (or a disabled one): the loop holds no recorder at
        all, so nothing can be formatted for any sink."""
        from repro.obs.recorder import ServiceRecorder

        built = []
        init = ServiceRecorder.__init__
        monkeypatch.setattr(
            ServiceRecorder, "__init__",
            lambda self, *a, **k: (built.append(a), init(self, *a, **k))[1],
        )
        metrics, total_blocks = _service_run(obs=obs)
        assert sum(m.blocks_delivered for m in metrics.values()) == (
            total_blocks
        )
        assert built == []

    def test_obs_off_streams_carry_no_trace_state(self):
        scenario = Scale(
            label="no-trace", streams=3, blocks_per_stream=20,
            k=4, buffer_capacity=6, seed=1,
        )
        drive = build_drive()
        initial, _ = scenario.build_streams(drive)
        service = RoundRobinService(drive, lambda _r, _n: scenario.k)
        service.run(initial)
        for stream in initial:
            assert stream.trace is None and stream.report_at == -1


class CountingEnds(list):
    """An ``ends`` column that counts the blocks folded into it and
    refuses any rewrite of one already there."""

    appends = 0

    def append(self, end):
        self.appends += 1
        super().append(end)

    def __setitem__(self, index, end):
        raise AssertionError(f"ends[{index}] re-folded")


def _counting_bisect(monkeypatch, owner=None):
    """Record every consumption bisect the loop makes: ``(now, wake)``,
    the stream's stored wake looked up through *owner* (ends id →
    stream) when given."""
    calls = []
    inner = rounds_module.bisect_right

    def spying(ends, now):
        stream = owner.get(id(ends)) if owner is not None else None
        calls.append((now, stream._wake if stream is not None else None))
        return inner(ends, now)

    monkeypatch.setattr(rounds_module, "bisect_right", spying)
    return calls


class TestConsumptionCursor:
    """Consumption is one bisect of a stream's ``ends`` column, which
    each landed block's play-out end enters once."""

    def test_service_run_never_rescans(self):
        """Each landed block's end is folded exactly once per stream: the
        column only grows, by one append per block."""
        streams = []

        def prepare(served):
            for stream in served:
                stream.ends = CountingEnds()
            streams.extend(served)

        metrics, total_blocks = _service_run(prepare=prepare)
        assert sum(m.blocks_delivered for m in metrics.values()) == (
            total_blocks
        )
        for stream in streams:
            assert stream.ends.appends == len(stream.ends) == len(stream.ready)

    def test_an_idle_round_wakes_without_a_consumption_query(
        self, monkeypatch
    ):
        """A round ends with an idle wait to the earliest wake its turns
        stored and handed back: no bisect between one round's turns and
        the next round's (the loop used to ask every active stream)."""
        bisects = _counting_bisect(monkeypatch)
        gaps, waited = [], []
        run_round, last = RoundRobinService._run_round, None

        def observed_round(self, time, *args):
            nonlocal last
            if last is not None:
                gaps.append(len(bisects) - last[0])
                waited.append(time > last[1])
            result = run_round(self, time, *args)
            last = (len(bisects), result[0])
            return result

        monkeypatch.setattr(RoundRobinService, "_run_round", observed_round)
        # Two streams read faster than they play, so buffers fill.
        metrics, total_blocks = _service_run(streams=2)
        assert sum(m.blocks_delivered for m in metrics.values()) == (
            total_blocks
        )
        assert gaps and not any(gaps), gaps
        assert any(waited)

    def test_a_served_turn_asks_the_cursor_once(self, monkeypatch):
        """One stream whose 0.2-s blocks outlast each ~10-ms read: the
        first turn fills the buffer and starts the clock, and every later
        one finds one slot free, reads one block and fills it again, no
        block playing out during the read.  Each turn's one bisect gives
        its room and its wake (the loop used to ask three times)."""
        calls = _counting_bisect(monkeypatch)
        drive, blocks, capacity = build_drive(), 20, 2
        stream = StreamState(
            request_id="one", buffer_capacity=capacity,
            fetches=FetchColumns.uniform(
                range(0, 10 * blocks, 10), drive.block_bits, 0.2
            ),
        )
        RoundRobinService(drive, lambda _r, _n: capacity).run([stream])
        assert stream.metrics.continuous
        assert len(calls) == 1 + (blocks - capacity)   # served turns

    def test_a_sleeping_turn_makes_no_bisect(self, monkeypatch):
        """A stream whose buffer a turn filled sleeps until its stored
        wake: its turn is one compare.  Every bisect is a served turn's,
        at or past the stream's wake, and sleeping turns happened."""
        owner = {}

        def prepare(served):
            owner.update((id(stream.ends), stream) for stream in served)

        calls = _counting_bisect(monkeypatch, owner)
        service_rounds = []
        run = RoundRobinService.run
        monkeypatch.setattr(
            RoundRobinService, "run",
            lambda self, *a, **k: (
                run(self, *a, **k), service_rounds.append(self.rounds_run)
            )[0],
        )
        metrics, total_blocks = _service_run(streams=2, prepare=prepare)
        assert sum(m.blocks_delivered for m in metrics.values()) == (
            total_blocks
        )
        assert calls and all(now >= wake for now, wake in calls), calls
        # Two streams each take a turn every round: the ones not served
        # slept.
        assert len(calls) < 2 * service_rounds[0]

    def test_a_request_path_run_asks_no_wake_query(self, monkeypatch):
        """Turns and idle rounds take every wake from the turns' cursor
        answers: each bisect is a served turn's — a stream is asked again
        only once a block has landed since — and nothing else asks."""
        owner = {}

        def prepare(served):
            owner.update((id(stream.ends), stream) for stream in served)

        inner, asked = rounds_module.bisect_right, []
        monkeypatch.setattr(
            rounds_module, "bisect_right",
            lambda ends, now: (
                asked.append((id(ends), len(owner[id(ends)].ready))),
                inner(ends, now),
            )[1],
        )
        for streams in (2, 8):
            metrics, total_blocks = _service_run(
                streams=streams, prepare=prepare
            )
            assert sum(m.blocks_delivered for m in metrics.values()) == (
                total_blocks
            )
        assert asked and len(set(asked)) == len(asked)

    def test_active_is_rescanned_only_after_a_join_or_a_finish(
        self, monkeypatch
    ):
        """Between two rounds the loop reads streams' ``next_fetch`` only
        to compact finished ones out, and does so only on entry, in the
        round an admission joins (the first to start at or after its
        join), and after a round whose turn delivered a plan's last block
        (it used to re-scan ``active`` every round)."""
        reads = []
        monkeypatch.setattr(StreamState, "next_fetch", property(
            lambda self: (reads.append(1), self.__dict__["_next"])[1],
            lambda self, value: self.__dict__.__setitem__("_next", value),
        ))
        rounds = []   # (round number, start, reads before its turns, after,
        #               finished)
        run_round = RoundRobinService._run_round

        def observed_round(self, time, active, k, round_number):
            before = len(reads)
            result = run_round(self, time, active, k, round_number)
            rounds.append((round_number, time, before, len(reads), result[2]))
            return result

        monkeypatch.setattr(RoundRobinService, "_run_round", observed_round)
        scenario = Scale(
            label="joins", streams=5, blocks_per_stream=12, k=2,
            buffer_capacity=3, seed=5, arrivals="staggered",
        )
        drive = build_drive()
        initial, admissions = scenario.build_streams(drive)
        assert admissions
        RoundRobinService(drive, lambda _r, _n: scenario.k).run(
            initial, admissions
        )
        joins = {admission.join for admission in admissions}
        expected, rescanned = [], []
        last, reads_after_last, last_finished = -1.0, 0, True   # entry
        for number, start, before, after, finished in rounds:
            if last_finished or any(last < join <= start for join in joins):
                expected.append(number)
            if before > reads_after_last:
                rescanned.append(number)
            last, reads_after_last, last_finished = start, after, finished
        assert rescanned == expected and len(expected) < len(rounds)

    def test_cursor_consumes_each_block_once(self):
        """Once a stream's clock runs, its ``ends`` column holds exactly
        one non-decreasing play-out end per landed block."""
        scenario = Scale(
            label="amortized", streams=4, blocks_per_stream=80,
            k=4, buffer_capacity=6, seed=3,
        )
        drive = build_drive()
        initial, _ = scenario.build_streams(drive)
        service = RoundRobinService(drive, lambda _r, _n: scenario.k)
        service.run(initial)
        for stream in initial:
            assert len(stream.ends) == len(stream.ready) == 80
            assert stream.ends == sorted(stream.ends)


class TestTableSeekMemo:
    POINTS = [(1, 0.004), (100, 0.012), (1000, 0.025)]

    def test_each_distance_interpolated_once(self):
        seek = CountingTableSeek(self.POINTS)
        distances = [0, 1, 7, 100, 450, 1000, 2000]
        expected = [seek.seek_time(d) for d in distances]
        assert seek.interpolations == len(distances)
        for _ in range(100):
            got = [seek.seek_time(d) for d in distances]
            assert got == expected
        assert seek.interpolations == len(distances)

    def test_cache_preserves_curve_values(self):
        cached = TableSeek(self.POINTS)
        reference = TableSeek(self.POINTS)
        for d in range(0, 2001, 13):
            assert cached.seek_time(d) == (
                reference._interpolate_seek_time(d)
            )


class TestInverseMemo:
    def test_generic_inversion_binary_searches_once(self):
        seek = CountingSeek(LinearSeek(settle_time=0.003, slope=2e-5))
        first = seek.max_distance_within(0.010, 1024)
        searched = seek.seek_time_calls
        assert searched > 0  # the binary search really ran
        for _ in range(50):
            assert seek.max_distance_within(0.010, 1024) == first
        assert seek.seek_time_calls == searched

    def test_memo_matches_uncached_inversion(self):
        seek = CountingSeek(LinearSeek(settle_time=0.003, slope=2e-5))
        for budget in (0.0, 0.003, 0.0051, 0.010, 1.0):
            for cylinders in (8, 1024):
                assert seek.max_distance_within(budget, cylinders) == (
                    seek._invert_seek_time(budget, cylinders)
                )


class TestDriveAccessCost:
    def test_one_seek_evaluation_per_distance(self):
        """The seek curve is evaluated once per distinct distance the
        drive ever moves, not once per access."""
        counting = CountingSeek(TESTBED_DRIVE.seek_model())
        drive = build_drive()
        drive.seek_model = counting
        distances, head = set(), 0
        reads = 200
        for i in range(reads):
            slot = (i * 37) % 400
            distances.add(abs(drive.cylinder_of(slot) - head))
            head = drive.cylinder_of(slot)
            drive.read_slot(slot)
        assert counting.seek_time_calls == len(distances) < reads

    def test_an_uncached_read_is_one_access_frame(self):
        """A fault-free read at a distance seen before runs ``read_slot``
        and one ``_access`` frame — no seek-curve, distance-check or
        latency-sampling frame — and counts one read."""
        drive = build_drive()
        far = drive.slots // 2
        drive.read_slot(far)
        drive.read_slot(0)
        frames = []

        def profile(frame, event, _arg):
            if event == "call":
                frames.append(frame.f_code.co_name)

        reads = drive.stats.reads
        sys.setprofile(profile)
        try:
            drive.read_slot(far)
        finally:
            sys.setprofile(None)
        assert frames == ["read_slot", "_access"], frames
        assert drive.stats.reads == reads + 1 and drive.stats.writes == 0

    def test_full_block_fast_path_matches_explicit_bits(self):
        a, b = build_drive(), build_drive()
        for i in range(50):
            slot = (i * 101) % a.slots
            assert a.read_slot(slot) == b.read_slot(slot, b.block_bits)
        assert a.stats.busy_time == b.stats.busy_time


class TestPlacementGeometryCalls:
    """A placed chain costs one ``cylinder_of`` — its head's.

    The allocator scans its window cylinder by cylinder, so a placed
    slot's cylinder is known by construction and is the next hop's
    anchor.  Before, each hop asked for its anchor's cylinder (one call
    per chained block), and earlier still each placement computed the
    anchor's cylinder twice and the candidate's once, each through a
    nine-call ``DiskGeometry`` property chain (10,776 calls for 3,592
    placements).
    """

    @staticmethod
    def _counting(monkeypatch):
        from repro.disk.drive import SimulatedDrive

        calls = []
        inner = SimulatedDrive.cylinder_of
        monkeypatch.setattr(
            SimulatedDrive, "cylinder_of",
            lambda self, slot: (calls.append(slot), inner(self, slot))[1],
        )
        return calls

    def test_store_costs_one_call_per_chained_block(self, monkeypatch):
        from repro.config import TESTBED_1991
        from repro.media.frames import frames_for_duration
        from repro.rope import build_rope_server

        msm = build_rope_server().msm
        frames = frames_for_duration(TESTBED_1991.video, 30.0, source="n")
        calls = self._counting(monkeypatch)
        placed = 0
        for _ in range(4):  # later strands thread the earlier ones' gaps
            before = len(calls)
            strand = msm.store_video_strand(frames)
            # The head anchors the chain; every later hop's anchor is
            # the cylinder its scan found it in.
            assert len(calls) - before == 1
            placed += strand.stored_block_count
        assert placed > 400

    def test_geometry_property_chain_is_off_the_placement_path(
        self, monkeypatch
    ):
        from repro.disk import ConstrainedScatterAllocator, FreeMap
        from repro.disk import ScatterBounds
        from repro.disk.geometry import DiskGeometry

        drive = build_drive()
        allocator = ConstrainedScatterAllocator(
            drive, FreeMap(drive.slots),
            ScatterBounds(0.0, drive.rotation.average_latency + 0.006),
        )
        chain = []
        for name in ("cylinder_of_slot", "cylinder_of_lba", "slot_to_lba"):
            inner = getattr(DiskGeometry, name)
            monkeypatch.setattr(
                DiskGeometry, name,
                lambda self, *a, _inner=inner: (
                    chain.append(1), _inner(self, *a)
                )[1],
            )
        calls = self._counting(monkeypatch)
        slots = allocator.allocate_strand(200)
        assert len(slots) == 200 and len(calls) == 1
        assert chain == []


class TestOnePassPerStrand:
    """Storing a strand makes its per-strand decisions once: the placer
    resolves its scattering window when built, and the index writes one
    secondary entry per primary block, not one per media block.
    """

    def test_positioning_is_resolved_per_strand_not_per_block(
        self, monkeypatch
    ):
        """The placer resolves its admitted distances once, when built:
        storing a strand asks ``positioning_time`` a fixed number of
        times however long it is (it used to ask once per candidate
        cylinder of every block)."""
        from repro.config import TESTBED_1991
        from repro.disk.drive import SimulatedDrive
        from repro.media.frames import frames_for_duration
        from repro.rope import build_rope_server

        calls = []
        inner = SimulatedDrive.positioning_time
        monkeypatch.setattr(
            SimulatedDrive, "positioning_time",
            lambda self, a, b: (calls.append(b), inner(self, a, b))[1],
        )
        asked = {}
        for seconds in (5.0, 60.0):
            msm = build_rope_server().msm
            frames = frames_for_duration(
                TESTBED_1991.video, seconds, source="n"
            )
            before = len(calls)
            blocks = msm.store_video_strand(frames).stored_block_count
            asked[blocks] = len(calls) - before
        assert len(asked) == 2 and max(asked) > 400
        assert len(set(asked.values())) == 1, asked
        assert max(asked.values()) <= 4, asked

    def test_one_secondary_entry_per_primary_block(self, monkeypatch):
        """Indexing a recording writes each primary block's secondary
        entry once (it used to rebuild the frozen entry per block), and
        assigning the index its slots back-fills each once more."""
        import repro.fs.index as index_module
        import repro.fs.storage_manager as msm_module
        from repro.config import TESTBED_1991
        from repro.media.frames import frames_for_duration
        from repro.rope import build_rope_server

        # Small fan-outs, so one strand spans many primary and secondary
        # blocks.
        monkeypatch.setattr(
            msm_module, "fanout_for", lambda _bits, entry: 1024 // entry
        )
        built, in_assign = [], []
        real = index_module.SecondaryEntry
        monkeypatch.setattr(
            index_module, "SecondaryEntry",
            lambda **fields: (built.append(1), real(**fields))[1],
        )
        assign = index_module.StrandIndex.assign_slots
        monkeypatch.setattr(
            index_module.StrandIndex, "assign_slots",
            lambda self, slots: (
                in_assign.append(-len(built)), assign(self, slots),
                in_assign.append(len(built)),
            )[1],
        )
        msm = build_rope_server().msm
        frames = frames_for_duration(TESTBED_1991.video, 30.0, source="n")
        strand = msm.store_video_strand(frames)
        primaries = len(strand.index.primaries)
        assert primaries == -(-strand.block_count // 16) > 10
        assert len(strand.index.secondaries) > 1
        assert sum(in_assign) == primaries
        assert len(built) - sum(in_assign) == primaries
        strand.verify_against_index()

    def test_a_recording_builds_no_block_or_entry_objects(self, monkeypatch):
        """A strand's columns are the one record of its blocks: storing
        an N-block video strand and a silence-bearing audio strand
        constructs no ``MediaBlock`` and no ``PrimaryEntry`` (the parent
        built one of each per stored block)."""
        import random

        from repro.config import TESTBED_1991
        from repro.fs.blocks import MediaBlock
        from repro.fs.index import PrimaryEntry
        from repro.media.audio import generate_talk_spurts
        from repro.media.frames import frames_for_duration
        from repro.rope import build_rope_server

        built = []
        for view in (MediaBlock, PrimaryEntry):
            monkeypatch.setattr(
                view, "__post_init__",
                lambda self, _check=view.__post_init__: (
                    built.append(type(self).__name__), _check(self)
                )[1],
            )
        msm = build_rope_server().msm
        video = msm.store_video_strand(
            frames_for_duration(TESTBED_1991.video, 30.0, source="n")
        )
        audio = msm.store_audio_strand(generate_talk_spurts(
            TESTBED_1991.audio, 30.0, 0.4, random.Random(7)
        ))
        assert video.stored_block_count > 200
        assert 0 < audio.stored_block_count < audio.block_count
        assert built == []


class TestCaptureIsAColumn:
    """Captured video is a column: capturing 300 s and recording them
    constructs no ``Frame`` (the parent built one per frame, 9,000)."""

    def test_a_capture_and_its_record_build_no_frame(self, monkeypatch):
        from repro.config import TESTBED_1991
        from repro.media.frames import Frame, frames_for_duration
        from repro.rope import build_rope_server

        built = []
        check = Frame.__post_init__
        monkeypatch.setattr(
            Frame, "__post_init__",
            lambda self: (built.append(self.index), check(self))[1],
        )
        mrs = build_rope_server()
        frames = frames_for_duration(TESTBED_1991.video, 300.0, source="n")
        request_id, rope_id = mrs.record("u", frames=frames)
        mrs.stop(request_id)
        assert len(frames) == 9_000
        assert mrs.get_rope(rope_id).duration == pytest.approx(300.0)
        assert built == []
        assert frames[-1].index == 8_999 and built == [8_999]


def _frames(function, *args):
    """Qualified names of the Python frames ``function(*args)`` enters."""
    frames = []

    def profile(frame, event, _arg):
        if event == "call":
            frames.append(frame.f_code.co_qualname)

    sys.setprofile(profile)
    try:
        function(*args)
    finally:
        sys.setprofile(None)
    return frames


class TestTheWritePathPaysPerCall:
    """RECORD pays per call, not per frame or per hop: recording one
    300-s title asks its codec for the whole size column once (the parent
    asked once per frame, 9,000 times), and its placer probes and marks
    the free map in place, so the strand's chain makes one
    ``first_free_in_window`` and one ``allocate`` call, for the head (the
    parent made one of each per hop, about 2,250)."""

    @staticmethod
    def _record(seconds):
        from repro.config import TESTBED_1991
        from repro.media.frames import frames_for_duration
        from repro.rope import build_rope_server

        mrs = build_rope_server()
        frames = frames_for_duration(TESTBED_1991.video, seconds, source="n")
        request_id, _rope = mrs.record("u", frames=frames)
        mrs.stop(request_id)
        return mrs

    def test_a_capture_asks_its_codec_once(self):
        for seconds in (1.0, 300.0):
            codec = [
                name for name in _frames(self._record, seconds)
                if name.split(".")[0].endswith("Codec")
            ]
            assert codec == [
                "FixedRateCodec.__post_init__", "FixedRateCodec.compressed_sizes"
            ], (seconds, len(codec))

    def test_a_chain_makes_no_free_map_call_per_hop(self, monkeypatch):
        from repro.disk import Allocator, FreeMap

        placing, calls = [], {"first_free_in_window": 0, "allocate": 0}
        for name in calls:
            monkeypatch.setattr(
                FreeMap, name,
                lambda self, *args, _name=name, _inner=getattr(FreeMap, name): (
                    calls.__setitem__(_name, calls[_name] + bool(placing)),
                    _inner(self, *args),
                )[1],
            )
        strand = Allocator.allocate_strand

        def placed(self, *args):
            placing.append(self)
            try:
                return strand(self, *args)
            finally:
                placing.pop()

        monkeypatch.setattr(Allocator, "allocate_strand", placed)
        mrs = self._record(300.0)
        (strand_id,) = mrs.msm.strand_ids()
        assert mrs.msm.get_strand(strand_id).stored_block_count == 2_250
        assert calls == {"first_free_in_window": 1, "allocate": 1}


class TestCachedReadFrames:
    """A cached read is one frame: the residency test, LRU refresh,
    counters and insert are ``CachedDrive.read_slot``'s own body."""

    def _cached(self, capacity):
        from repro.disk.cache import BlockCache, CachedDrive

        drive = build_drive()
        far = drive.slots // 2
        # Both directions of the far hop are seen, so no seek-curve frame.
        drive.read_slot(far)
        drive.read_slot(0)
        return CachedDrive(drive, BlockCache(capacity)), far

    def test_a_hit_is_one_frame(self):
        cached, far = self._cached(4)
        cached.read_slot(far)
        assert _frames(cached.read_slot, far) == [
            "CachedDrive.read_slot"
        ]
        assert cached.cache.stats.hits == 1

    def test_an_evicting_miss_is_the_drive_read_below_one_frame(self):
        cached, far = self._cached(2)
        neighbour = far + 1
        assert cached.inner.cylinder_of(neighbour) == cached.inner.cylinder_of(far)
        cached.read_slot(far)
        cached.read_slot(0)
        frames = _frames(cached.read_slot, neighbour)
        assert frames == [
            "CachedDrive.read_slot", "SimulatedDrive.read_slot",
            "SimulatedDrive._access",
        ], frames
        assert list(cached.cache._resident) == [0, neighbour]
        assert cached.cache.stats.evictions == 1


class TestEditMeasuresCreatedSeams:
    """An edit measures the seams it creates, not the rope's: the same
    edit at the end of a 4-segment and of a 64-segment rope makes the
    same number of ``access_gap`` calls."""

    @staticmethod
    def _gaps_of_an_edit_at_the_end(segments):
        from repro.config import TESTBED_1991
        from repro.media.frames import frames_for_duration
        from repro.rope import Media, build_rope_server

        mrs = build_rope_server()
        video = TESTBED_1991.video
        _, base = mrs.record("u", frames=frames_for_duration(video, 2.0, source="b"))
        _, clip = mrs.record("u", frames=frames_for_duration(video, 1.0, source="c"))
        for _ in range(segments - 1):
            mrs.concate("u", base, clip)
        assert mrs.get_rope(base).interval_count() == segments
        calls = []
        drive = mrs.msm.drive
        gap = drive.access_gap
        drive.access_gap = lambda a, b: (calls.append(1), gap(a, b))[1]
        rope = mrs.insert(
            "u", base, mrs.get_rope(base).duration, Media.VIDEO, clip, 0.0, 0.5
        )
        assert rope.interval_count() == segments + 1
        assert mrs.last_repair.residual_violations == 0
        return len(calls), mrs.last_repair.seams_checked

    def test_an_edit_at_the_end_is_o1_in_rope_length(self):
        short = self._gaps_of_an_edit_at_the_end(4)
        long = self._gaps_of_an_edit_at_the_end(64)
        assert short == long and short[0] >= 1, (short, long)


def _serve_cold(seconds=60.0, seed=3):
    """A `server_cold`-shaped epoch: a cacheless, unbatched MediaServer on
    the fast drive, loaded to n_max with sessions arriving over 5 s."""
    import random

    from repro.api import OpenSessionRequest
    from repro.config import TESTBED_1991
    from repro.disk.factory import FAST_DRIVE
    from repro.fs import MultimediaStorageManager
    from repro.media.frames import frames_for_duration
    from repro.rope import MultimediaRopeServer
    from repro.server.media_server import MediaServer

    profile = TESTBED_1991
    msm = MultimediaStorageManager(
        build_drive(FAST_DRIVE), profile.video, profile.audio,
        profile.video_device, profile.audio_device,
    )
    server = MediaServer(
        MultimediaRopeServer(msm), batch_window=0.0, cache_blocks=0
    )
    ropes = []
    for index in range(msm.admission.capacity(msm.descriptor_for_media(True))):
        request_id, rope_id = server.mrs.record(
            "librarian", play_access=("viewer",),
            frames=frames_for_duration(profile.video, seconds, source=f"c{index}"),
        )
        server.mrs.stop(request_id)
        ropes.append(rope_id)
    rng = random.Random(seed)
    return server.serve([
        OpenSessionRequest("viewer", rope_id, arrival=rng.uniform(0.0, 5.0))
        for rope_id in ropes
    ])


class TestEveryRoundIsWalked:
    """There is one kind of round: ``_run_round`` runs once per round,
    and the rounds are the round model's (``tests/round_model.py``)."""

    def test_run_round_is_entered_once_per_round(self, monkeypatch):
        from copy import deepcopy

        from tests.round_model import Stream, serve

        entered, models = [], []
        fast_run, fast_round = RoundRobinService.run, RoundRobinService._run_round

        def run(self, initial, admissions=(), max_rounds=100_000):
            """The model serves the epoch first, reading a twin drive."""
            joined = [(None, s) for s in initial]
            joined += [(a.join, a.stream) for a in admissions]
            bits = {
                slot: size for _, s in joined
                for slot, size in zip(s.fetches.slots, s.fetches.bits)
            }
            twin = deepcopy(self.drive)
            models.append(serve(
                [Stream(s.request_id, s.fetches.slots, s.fetches.durations,
                        s.buffer_capacity, s.k_override, joins)
                 for joins, s in joined],
                self.k_schedule, lambda _head, slot: twin.read_slot(slot, bits[slot]),
            ))
            return fast_run(self, initial, admissions, max_rounds)

        monkeypatch.setattr(RoundRobinService, "run", run)
        monkeypatch.setattr(
            RoundRobinService, "_run_round",
            lambda self, *a: (entered.append(1), fast_round(self, *a))[1],
        )
        result = _serve_cold()
        assert result.rounds == sum(model.rounds_run for model in models)
        assert len(entered) == result.rounds
        assert all(s.state.value == "completed" for s in result.statuses)


def _cluster_preset():
    """The stock cluster observability: ``for_scale``, the cluster SLOs
    and the profiler."""
    from repro.cluster.router import CLUSTER_SLOS
    from repro.obs import SloMonitor

    obs = Observability.for_scale(seed=3)
    obs.slo = SloMonitor(obs.registry, CLUSTER_SLOS)
    obs.enable_profiler()
    return obs


def _hit_epoch(obs, streams=4, blocks=40):
    """A `failover_observed`-shaped epoch: every read a cache hit, k = 1.
    Returns (rounds run, ``_run_round`` passes, blocks delivered)."""
    from repro.disk.cache import BlockCache, CachedDrive

    drive = build_drive()
    slots = [[s * 500 + b for b in range(blocks)] for s in range(streams)]
    cached = CachedDrive(drive, BlockCache(streams * blocks), obs=obs)
    for plan in slots:
        for slot in plan:
            cached.read_slot(slot)
    initial = [
        StreamState(f"s{s}", FetchColumns.uniform(plan, drive.block_bits, 1 / 30), 2)
        for s, plan in enumerate(slots)
    ]
    service = RoundRobinService(cached, lambda _r, _n: 1, obs=obs)
    passes = []
    walk = service._run_round
    service._run_round = lambda *args: (passes.append(1), walk(*args))[1]
    metrics = service.run(initial)
    delivered = sum(m.blocks_delivered for m in metrics.values())
    return service.rounds_run, len(passes), delivered


class TestWatchingIsNotWalking:
    """An observer does not change the rounds the loop runs, call the
    recorder per block, or count cache probes a second time."""

    def test_an_observed_hit_epoch_passes_over_the_unobserved_rounds(self):
        plain = _hit_epoch(None)
        observed = _hit_epoch(_cluster_preset())
        assert observed == plain
        rounds, passes, delivered = observed
        assert delivered == 160 and passes == rounds

    def test_an_unsampled_block_makes_no_recorder_call(self, monkeypatch):
        from repro.obs import SpanTracer
        from repro.obs.recorder import ServiceRecorder

        calls = {}
        for name, member in list(vars(ServiceRecorder).items()):
            if callable(member) and not name.startswith("_"):
                def counted(self, *args, _name=name, _inner=member, **kw):
                    calls[_name] = calls.get(_name, 0) + 1
                    return _inner(self, *args, **kw)
                monkeypatch.setattr(ServiceRecorder, name, counted)
        obs = _cluster_preset()
        obs.tracer = SpanTracer(seed=3, block_keep_first=1, block_every_kth=25)
        passes = []
        walk = RoundRobinService._run_round
        monkeypatch.setattr(
            RoundRobinService, "_run_round",
            lambda self, *a: (passes.append(1), walk(self, *a))[1],
        )
        metrics, total = _service_run(streams=4, blocks=60, obs=obs)
        assert sum(m.blocks_delivered for m in metrics.values()) == total
        # Blocks 0, 25 and 50 of each stream are traced: their reads are
        # the drive's traced accesses.  No other block reaches the recorder.
        sampled = 4 * 3
        rounds = obs.registry.peek_histogram("service.queue_depth").count
        assert calls == {
            "stream_opened": 4, "round_begin": len(passes),
            "round_served": len(passes), "round_end": rounds,
            "block_begin": sampled, "block_end": sampled,
            "span_begin": sampled, "span_end": sampled, "run_end": 1,
        }

    def test_cache_counters_are_the_caches_own(self):
        from repro.disk.cache import BlockCache, CachedDrive
        from repro.obs.recorder import recorder_for

        drive = build_drive()
        far = drive.slots // 2
        drive.read_slot(far)
        drive.read_slot(0)
        cached = CachedDrive(drive, BlockCache(2))
        for slot in (0, far, 0, 7):   # read before any observer
            cached.read_slot(slot)
        obs = Observability(seed=0)
        cached.attach_cache_observer(obs)
        cached.attach_cache_observer(obs)   # attaching twice counts once
        before = cached.cache.stats.as_dict()
        rec = recorder_for(obs, "loop")
        parent = obs.tracer.start_span("test", 0.0, session="s")
        for step, slot in enumerate((0, far, far, 9, 0, 7, far, 9)):
            if step % 2:
                cached.traced_read(slot, None, float(step), rec, parent)
            else:
                cached.read_slot(slot)
        after = cached.cache.stats.as_dict()
        counters = obs.registry.snapshot_dict()["counters"]
        assert {
            name: counters[f"cache.{name}"]
            for name in ("hits", "misses", "evictions")
        } == {
            name: after[name] - before[name]
            for name in ("hits", "misses", "evictions")
        }
        assert counters["cache.hits"] > 0 and counters["cache.evictions"] > 0
        # A hit is the same one frame observed or not.
        cached.read_slot(far)
        assert _frames(cached.read_slot, far) == ["CachedDrive.read_slot"]


class TestSizingIsByShape:
    """Logging an admission costs the same at k = 3 as at k = 865: a
    transition plan's steps are sized in one pass, not one call each."""

    @staticmethod
    def _decision(k):
        from repro.core.admission import (
            AdmissionDecision,
            ServiceParameters,
            TransitionPlan,
        )

        return AdmissionDecision(
            request_id=2,
            params=ServiceParameters(alpha=0.03, beta=0.01, gamma=0.1, n=3),
            k=k,
            transition=TransitionPlan(
                k_old=1, k_new=k, steps=tuple(range(2, k + 1))
            ),
        )

    def test_a_long_plan_costs_no_more_calls_than_a_short_one(
        self, monkeypatch
    ):
        import repro.service.rpc as rpc

        calls = []
        inner = rpc.estimate_bytes

        def counting(value):
            calls.append(value)
            return inner(value)

        monkeypatch.setattr(rpc, "estimate_bytes", counting)
        counts = {}
        for steps in (2, 864, 2):
            calls.clear()
            rpc.estimate_bytes(self._decision(steps + 1))
            counts[steps] = len(calls)
        assert counts[864] == counts[2]

    def test_three_sessions_send_the_bytes_they_always_sent(self):
        from repro.api import Media, OpenSessionRequest
        from repro.scenarios.server import record_strands
        from repro.server import build_media_server

        server = build_media_server()
        clients = [f"client-{i}" for i in range(3)]
        rope_ids = record_strands(server.mrs, 3, 1.0, clients, "rpc")
        server.serve([
            OpenSessionRequest(client_id=client, rope_id=rope, media=Media.VIDEO)
            for client, rope in zip(clients, rope_ids)
        ])
        admits = [c for c in server.channel.calls if c.method == "admit"]
        # The third admission asks for k = 865: an 864-step plan.
        assert admits[-1].result_bytes == 7_016
        assert server.channel.bytes_transferred == 7_595
