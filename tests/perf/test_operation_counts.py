"""Operation-count invariants: the O(1) fast paths stay O(1).

These tests wrap the hot-path collaborators with counting proxies and
assert *how much work* a service run performs, not just what it returns:

* the :class:`StreamState` consumption cursor never falls back to the
  O(n) reference rescan during a (monotone-time) service run;
* :class:`TableSeek` interpolates each distance once, ever;
* the generic ``max_distance_within`` binary search runs once per
  distinct ``(budget, cylinders)`` pair;
* :meth:`SimulatedDrive.read_slot` costs exactly one seek-curve
  evaluation per access.

If a future change quietly reintroduces a rescan or a per-access
recomputation, these counters move and the suite fails — the perf
guarantee is pinned behaviorally, without timing flakiness.
"""

import pytest

import repro.service.rounds as rounds_module
from repro.disk.factory import TESTBED_DRIVE, build_drive
from repro.disk.seek import LinearSeek, SeekModel, TableSeek
from repro.obs import Observability
from repro.scenarios.loop import Scale
from repro.service.rounds import RoundRobinService
from repro.sim.metrics import consumed_prefix

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


def _service_run(streams=8, blocks=60, obs=None, **policies):
    scenario = Scale(
        label="count", streams=streams, blocks_per_stream=blocks,
        k=4, buffer_capacity=6, seed=7,
    )
    drive = build_drive()
    initial, admissions = scenario.build_streams(drive)
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
    timeline events, or metric instruments anywhere on the hot path —
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
            SessionTimeline, "record",
            counting("timeline", SessionTimeline.record),
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
        """No observer (or a disabled one) and no sim tracer: the loop
        holds no recorder at all, so nothing can be formatted for — let
        alone emitted to — a trace log."""
        from repro.obs.recorder import ServiceRecorder
        from repro.sim.trace import Tracer

        built, emitted = [], []
        init = ServiceRecorder.__init__
        monkeypatch.setattr(
            ServiceRecorder, "__init__",
            lambda self, *a, **k: (built.append(a), init(self, *a, **k))[1],
        )
        monkeypatch.setattr(
            Tracer, "emit", lambda self, *a, **k: emitted.append(a)
        )
        metrics, total_blocks = _service_run(obs=obs)
        assert sum(m.blocks_delivered for m in metrics.values()) == (
            total_blocks
        )
        assert built == [] and emitted == []

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


class TestConsumptionCursor:
    def test_service_run_never_rescans(self, monkeypatch):
        """The monotone service loop stays on the O(1) cursor path."""
        calls = []

        def spying_prefix(ready, durations, start, now):
            calls.append(now)
            return consumed_prefix(ready, durations, start, now)

        monkeypatch.setattr(
            rounds_module, "consumed_prefix", spying_prefix
        )
        metrics, total_blocks = _service_run()
        assert sum(m.blocks_delivered for m in metrics.values()) == (
            total_blocks
        )
        assert calls == [], (
            "service run hit the O(n) reference rescan "
            f"{len(calls)} times; the cursor hot path regressed"
        )

    def test_cursor_consumes_each_block_once(self):
        """Cursor work is bounded by delivered blocks (amortized O(1))."""
        scenario = Scale(
            label="amortized", streams=4, blocks_per_stream=80,
            k=4, buffer_capacity=6, seed=3,
        )
        drive = build_drive()
        initial, _ = scenario.build_streams(drive)
        service = RoundRobinService(drive, lambda _r, _n: scenario.k)
        service.run(initial)
        for stream in initial:
            assert stream._consumed_count <= len(stream.ready)


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
    def test_one_seek_evaluation_per_read(self):
        counting = CountingSeek(TESTBED_DRIVE.seek_model())
        drive = build_drive()
        drive.seek_model = counting
        reads = 200
        for i in range(reads):
            drive.read_slot((i * 37) % drive.slots)
        assert counting.seek_time_calls == reads

    def test_full_block_fast_path_matches_explicit_bits(self):
        a, b = build_drive(), build_drive()
        for i in range(50):
            slot = (i * 101) % a.slots
            assert a.read_slot(slot) == b.read_slot(slot, b.block_bits)
        assert a.stats.busy_time == b.stats.busy_time


class TestPlacementGeometryCalls:
    """A placed block costs one ``cylinder_of`` — the anchor's.

    The allocator scans its window cylinder by cylinder, so a
    candidate's cylinder is known by construction; before, each
    placement computed the anchor's cylinder twice and the candidate's
    once, each through a nine-call ``DiskGeometry`` property chain
    (10,776 calls for 3,592 placements).
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
            # The head block has no anchor; every later block has one.
            assert len(calls) - before == strand.stored_block_count - 1
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
        assert len(calls) == len(slots) - 1
        assert chain == []
