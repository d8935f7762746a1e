"""Unit tests for continuity metrics and tracing."""

import pytest

from repro.errors import SimulationError
from repro.sim.metrics import ContinuityMetrics
from repro.sim.trace import Tracer


class TestContinuityMetrics:
    def test_on_time_blocks(self):
        metrics = ContinuityMetrics()
        metrics.record_delivery(arrival=1.0, deadline=1.0)
        metrics.record_delivery(arrival=0.5, deadline=2.0)
        assert metrics.continuous
        assert metrics.misses == 0
        assert metrics.miss_ratio == 0.0
        assert metrics.blocks_delivered == 2

    def test_late_blocks_counted(self):
        metrics = ContinuityMetrics()
        metrics.record_delivery(arrival=1.5, deadline=1.0)
        metrics.record_delivery(arrival=3.0, deadline=2.0)
        assert not metrics.continuous
        assert metrics.misses == 2
        assert metrics.max_lateness == pytest.approx(1.0)
        assert metrics.total_lateness == pytest.approx(1.5)
        assert metrics.miss_ratio == 1.0

    def test_jitter_peak_to_peak(self):
        metrics = ContinuityMetrics()
        metrics.record_delivery(arrival=0.5, deadline=1.0)  # -0.5
        metrics.record_delivery(arrival=2.3, deadline=2.0)  # +0.3
        assert metrics.jitter == pytest.approx(0.8)

    def test_mean_lateness(self):
        metrics = ContinuityMetrics()
        metrics.record_delivery(arrival=0.9, deadline=1.0)
        metrics.record_delivery(arrival=2.1, deadline=2.0)
        assert metrics.mean_lateness == pytest.approx(0.0)

    def test_empty_metrics(self):
        metrics = ContinuityMetrics()
        assert metrics.continuous
        assert metrics.miss_ratio == 0.0
        assert metrics.jitter == 0.0
        assert metrics.mean_lateness == 0.0


class TestTracer:
    def test_emit_and_filter(self):
        tracer = Tracer()
        tracer.emit(1.0, "read", "req1", "block 0")
        tracer.emit(2.0, "miss", "req1", "block 1")
        tracer.emit(3.0, "read", "req2", "block 0")
        assert len(tracer) == 3
        assert len(tracer.filter(tag="read")) == 2
        assert len(tracer.filter(subject="req1")) == 2
        assert len(tracer.filter(tag="read", subject="req2")) == 1
        assert tracer.counts_by_tag() == {"read": 2, "miss": 1}

    def test_disabled_tracer_is_noop(self):
        tracer = Tracer(enabled=False)
        tracer.emit(1.0, "read", "x")
        assert len(tracer) == 0

    def test_limit_drops_oldest(self):
        tracer = Tracer(limit=2)
        for i in range(5):
            tracer.emit(float(i), "t", f"s{i}")
        assert len(tracer) == 2
        assert tracer.dropped == 3
        assert tracer.filter(subject="s4")

    def test_render(self):
        tracer = Tracer(limit=2)
        for i in range(3):
            tracer.emit(float(i), "tag", "subj", "detail")
        text = tracer.render()
        assert "dropped" in text
        assert "tag" in text


class TestTracerFifoTruncation:
    """The FIFO drop path in detail: chaos soak runs emit millions of
    events, so bounded retention must keep exactly the newest `limit`
    records, count every drop, and say so when rendered."""

    def test_retains_exactly_the_newest_limit_events(self):
        tracer = Tracer(limit=5)
        for i in range(12):
            tracer.emit(float(i), "tick", "soak", str(i))
        assert len(tracer) == 5
        assert tracer.dropped == 7
        assert [event.detail for event in tracer] == [
            "7", "8", "9", "10", "11"
        ]

    def test_drop_order_is_strictly_oldest_first(self):
        tracer = Tracer(limit=3)
        for i in range(3):
            tracer.emit(float(i), "t", "s", str(i))
        assert tracer.dropped == 0
        tracer.emit(3.0, "t", "s", "3")
        assert [event.detail for event in tracer] == ["1", "2", "3"]
        tracer.emit(4.0, "t", "s", "4")
        assert [event.detail for event in tracer] == ["2", "3", "4"]
        assert tracer.dropped == 2

    def test_large_volume_stays_bounded_and_counts_all_drops(self):
        limit = 100
        total = 25_000
        tracer = Tracer(limit=limit)
        for i in range(total):
            tracer.emit(float(i), "fault.inject", "soak", str(i))
        assert len(tracer) == limit
        assert tracer.dropped == total - limit
        assert [event.detail for event in tracer][0] == str(total - limit)
        assert tracer.counts_by_tag() == {"fault.inject": limit}

    def test_render_reports_the_drop_count(self):
        tracer = Tracer(limit=2)
        for i in range(9):
            tracer.emit(float(i), "t", "s")
        assert "... 7 earlier events dropped ..." in tracer.render()

    def test_disabled_tracer_never_drops(self):
        tracer = Tracer(enabled=False, limit=1)
        for i in range(10):
            tracer.emit(float(i), "t", "s")
        assert len(tracer) == 0
        assert tracer.dropped == 0


class TestTracerStrictMode:
    """The "no events dropped" contract: `dropped_count` lets tests
    assert completeness, and strict mode turns a would-be drop into a
    hard error instead of silently losing the oldest record."""

    def test_dropped_count_mirrors_dropped(self):
        tracer = Tracer(limit=3)
        for i in range(5):
            tracer.emit(float(i), "t", "s")
        assert tracer.dropped_count == 2
        assert tracer.dropped_count == tracer.dropped

    def test_complete_trace_reports_zero_dropped(self):
        tracer = Tracer(limit=10)
        for i in range(10):
            tracer.emit(float(i), "t", "s")
        assert tracer.dropped_count == 0

    def test_strict_mode_raises_on_overflow(self):
        tracer = Tracer(limit=2, strict=True)
        tracer.emit(0.0, "t", "s")
        tracer.emit(1.0, "t", "s")
        with pytest.raises(SimulationError, match="2-event limit"):
            tracer.emit(2.0, "overflowing", "s")

    def test_strict_overflow_preserves_existing_events(self):
        tracer = Tracer(limit=2, strict=True)
        tracer.emit(0.0, "t", "s", "0")
        tracer.emit(1.0, "t", "s", "1")
        with pytest.raises(SimulationError):
            tracer.emit(2.0, "t", "s", "2")
        assert [event.detail for event in tracer] == ["0", "1"]
        assert tracer.dropped_count == 0

    def test_strict_under_limit_is_transparent(self):
        tracer = Tracer(limit=100, strict=True)
        for i in range(50):
            tracer.emit(float(i), "t", "s")
        assert len(tracer) == 50
        assert tracer.dropped_count == 0

    def test_disabled_strict_tracer_never_raises(self):
        tracer = Tracer(enabled=False, limit=1, strict=True)
        for i in range(10):
            tracer.emit(float(i), "t", "s")
        assert len(tracer) == 0
