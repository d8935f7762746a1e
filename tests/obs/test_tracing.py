"""Unit tests for the causal span tracer.

Everything here pins the determinism contract: trace/span ids derive
from seed + session key + creation sequence (never wall clock), parent
context crosses boundaries as a plain wire dict, and overflow behaves
exactly like the simulation tracer (drop-newest + counter, or raise in
strict mode).
"""

import json
import zlib

import pytest

from repro.errors import ParameterError, SimulationError
from repro.obs import Span, SpanTracer

pytestmark = pytest.mark.trace


class TestIdentity:
    def test_trace_id_is_crc32_of_seed_and_key(self):
        tracer = SpanTracer(seed=42)
        expected = format(zlib.crc32(b"42/session-1"), "08x")
        assert tracer.trace_id_for("session-1") == expected

    def test_same_seed_same_ids(self):
        a, b = SpanTracer(seed=7), SpanTracer(seed=7)
        sa = a.start_span("server.request", 0.0, session="s-1")
        sb = b.start_span("server.request", 0.0, session="s-1")
        assert sa.span_id == sb.span_id
        assert sa.trace_id == sb.trace_id

    def test_different_seeds_different_trace_ids(self):
        assert SpanTracer(seed=0).trace_id_for("s") != (
            SpanTracer(seed=1).trace_id_for("s")
        )

    def test_span_ids_append_creation_sequence(self):
        tracer = SpanTracer(seed=0)
        first = tracer.start_span("a", 0.0, session="s")
        second = tracer.start_span("b", 1.0, session="s")
        trace = tracer.trace_id_for("s")
        assert first.span_id == f"{trace}:000001"
        assert second.span_id == f"{trace}:000002"

    def test_root_without_session_keys_trace_on_name(self):
        tracer = SpanTracer(seed=0)
        span = tracer.start_span("server.batch", 0.0)
        assert span.trace_id == tracer.trace_id_for("server.batch")
        assert span.session is None


class TestParenting:
    def test_child_of_live_span_inherits_trace_and_session(self):
        tracer = SpanTracer(seed=0)
        root = tracer.start_span("server.request", 0.0, session="s-1")
        child = tracer.start_span("server.admit", 0.5, parent=root)
        assert child.parent_id == root.span_id
        assert child.trace_id == root.trace_id
        assert child.session == "s-1"

    def test_wire_dict_crosses_a_boundary(self):
        tracer = SpanTracer(seed=0)
        root = tracer.start_span("server.request", 0.0, session="s-1")
        wire = root.wire(1.25)
        assert wire == {
            "trace_id": root.trace_id,
            "span_id": root.span_id,
            "time": 1.25,
            "session": "s-1",
        }
        # The wire form is marshallable like any RPC argument.
        reparsed = json.loads(json.dumps(wire))
        child = tracer.start_span("msm.admit", 1.5, parent=reparsed)
        assert child.parent_id == root.span_id
        assert child.trace_id == root.trace_id
        assert child.session == "s-1"
        assert tracer.trace_is_connected(root.trace_id)

    def test_connectivity_checks_single_root_and_parents(self):
        tracer = SpanTracer(seed=0)
        root = tracer.start_span("a", 0.0, session="s")
        tracer.start_span("b", 0.1, parent=root)
        assert tracer.trace_is_connected(root.trace_id)
        # A second root in the same trace breaks the tree shape.
        tracer.start_span("c", 0.2, session="s")
        assert not tracer.trace_is_connected(root.trace_id)
        assert not tracer.trace_is_connected("not-a-trace")

    def test_children_and_roots_queries(self):
        tracer = SpanTracer(seed=0)
        root = tracer.start_span("a", 0.0, session="s")
        kids = [
            tracer.start_span("b", 0.1, parent=root),
            tracer.start_span("c", 0.2, parent=root),
        ]
        assert tracer.children_of(root) == kids
        assert tracer.roots_of(root.trace_id) == [root]


class TestLifecycle:
    def test_end_span_sets_end_status_and_latest_end(self):
        tracer = SpanTracer(seed=0)
        span = tracer.start_span("a", 1.0, session="s")
        tracer.end_span(span, 3.5, status="degraded")
        assert span.end == 3.5
        assert span.status == "degraded"
        assert span.duration == 2.5
        assert tracer.latest_end(span.trace_id) == 3.5

    def test_end_span_tolerates_none_and_already_closed(self):
        tracer = SpanTracer(seed=0)
        tracer.end_span(None, 1.0)  # no-op
        span = tracer.start_span("a", 0.0, session="s")
        tracer.end_span(span, 1.0)
        tracer.end_span(span, 9.0, status="late")  # ignored
        assert span.end == 1.0
        assert span.status == "ok"

    def test_open_span_has_zero_duration(self):
        tracer = SpanTracer(seed=0)
        span = tracer.start_span("a", 2.0, session="s")
        assert span.duration == 0.0

    def test_disabled_tracer_records_nothing(self):
        tracer = SpanTracer(enabled=False)
        assert tracer.start_span("a", 0.0, session="s") is None
        assert len(tracer) == 0


class TestOverflow:
    def test_drops_newest_and_counts(self):
        tracer = SpanTracer(seed=0, limit=2)
        a = tracer.start_span("a", 0.0, session="s")
        b = tracer.start_span("b", 0.1, parent=a)
        dropped = tracer.start_span("c", 0.2, parent=b)
        assert dropped is None
        assert len(tracer) == 2
        assert tracer.dropped_count == 1
        # Recorded parent chains never dangle.
        assert tracer.trace_is_connected(a.trace_id)

    def test_strict_mode_raises(self):
        tracer = SpanTracer(seed=0, limit=1, strict=True)
        tracer.start_span("a", 0.0, session="s")
        with pytest.raises(SimulationError):
            tracer.start_span("b", 0.1, session="s")

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            SpanTracer(limit=0)
        with pytest.raises(ParameterError):
            SpanTracer(block_keep_first=-1)
        with pytest.raises(ParameterError):
            SpanTracer(block_every_kth=0)


class TestBindings:
    def test_bind_context_for_unbind(self):
        tracer = SpanTracer(seed=0)
        root = tracer.start_span("server.request", 0.0, session="s-1")
        tracer.bind("s-1", root)
        assert tracer.context_for("s-1") is root
        tracer.unbind("s-1")
        assert tracer.context_for("s-1") is None
        tracer.unbind("s-1")  # no-op when absent


class TestSampling:
    """The recorder's one lattice rule, ``_next_sampled``: the block index
    a stream reports next (``StreamState.report_at``) under the tracer's
    ``(block_keep_first, block_every_kth)``."""

    @staticmethod
    def _lattice(tracer, upto):
        from repro.obs.recorder import _next_sampled

        gate = (tracer.block_keep_first, tracer.block_every_kth)
        sampled, index = [], _next_sampled(0, *gate)
        while index < upto:
            sampled.append(index)
            index = _next_sampled(index + 1, *gate)
        return sampled

    def test_unsampled_traces_every_block(self):
        tracer = SpanTracer(seed=0)
        assert self._lattice(tracer, 100) == list(range(100))

    def test_keep_first_and_every_kth(self):
        tracer = SpanTracer(
            seed=0, block_keep_first=4, block_every_kth=16
        )
        assert self._lattice(tracer, 64) == [0, 1, 2, 3, 16, 32, 48]

    @pytest.mark.parametrize("gate", ["block_keep_first", "block_every_kth"])
    @pytest.mark.parametrize("bad", [2.5, float("nan"), "3", True, 4.0])
    def test_a_sampling_gate_that_is_not_an_int_is_refused(self, gate, bad):
        """2.5 silently traced one block span of a 23-block serve instead
        of about 12, "3" raised a bare TypeError and NaN and True passed:
        each is now a ParameterError when the tracer is built."""
        with pytest.raises(ParameterError, match=rf"{gate} must be an int"):
            SpanTracer(**{gate: bad})

    def test_keep_first_only(self):
        tracer = SpanTracer(seed=0, block_keep_first=2)
        assert self._lattice(tracer, 8) == [0, 1]

    def test_a_run_opens_block_spans_on_the_lattice_alone(self):
        """The loop reports exactly the lattice's blocks, whatever the
        timeline samples."""
        from repro.obs import Observability, SessionTimeline
        from repro.scenarios import get

        obs = Observability()
        obs.timeline = SessionTimeline(keep_first=3, every_kth=4)
        obs.tracer = SpanTracer(seed=0, block_keep_first=2, block_every_kth=5)
        get("scale")(streams=2, blocks_per_stream=12, seed=1).run(obs)
        spans = obs.tracer.spans(name="service.block")
        sessions = {span.session for span in spans}
        assert len(sessions) == 2
        for session in sessions:
            assert [
                span.attrs["block"] for span in spans
                if span.session == session
            ] == self._lattice(obs.tracer, 12) == [0, 1, 5, 10]


class TestSummaryAndExport:
    def _small_trace(self):
        tracer = SpanTracer(seed=0)
        root = tracer.start_span("server.request", 0.0, session="s-1")
        child = tracer.start_span(
            "disk.access", 0.25, parent=root, attrs={"slot": 9}
        )
        tracer.end_span(child, 0.75)
        tracer.end_span(root, 1.0)
        return tracer, root, child

    def test_summary_dict_shape(self):
        tracer, root, _child = self._small_trace()
        open_span = tracer.start_span("dangling", 2.0, session="s-2")
        assert open_span is not None
        summary = tracer.summary_dict()
        assert summary["count"] == 3
        assert summary["open"] == 1
        assert summary["orphans"] == 0
        assert summary["dropped"] == 0
        assert summary["traces"] == 2
        assert summary["by_name"] == {
            "dangling": 1, "disk.access": 1, "server.request": 1,
        }

    def test_chrome_trace_shape(self):
        tracer, root, child = self._small_trace()
        doc = tracer.to_chrome_trace()
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"] == {
            "clock": "simulated", "seed": 0, "spans": 2, "dropped": 0,
        }
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert len(meta) == 1
        assert meta[0]["args"] == {"name": "s-1"}
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert [e["name"] for e in complete] == [
            "server.request", "disk.access",
        ]
        disk = complete[1]
        # Microsecond timestamps on the simulated clock.
        assert disk["ts"] == 0.25 * 1e6
        assert disk["dur"] == 0.5 * 1e6
        assert disk["cat"] == "disk"
        assert disk["args"]["slot"] == 9
        assert disk["args"]["parent_id"] == root.span_id

    def test_export_is_deterministic(self):
        docs = []
        for _ in range(2):
            tracer, _root, _child = self._small_trace()
            docs.append(
                json.dumps(tracer.to_chrome_trace(), sort_keys=True)
            )
        assert docs[0] == docs[1]

    def test_span_to_dict_roundtrips_json(self):
        _tracer, root, _child = self._small_trace()
        record = json.loads(json.dumps(root.to_dict()))
        assert record["name"] == "server.request"
        assert record["parent_id"] is None
        assert record["status"] == "ok"

    def test_spans_filters(self):
        tracer, root, child = self._small_trace()
        assert tracer.spans(name="disk.access") == [child]
        assert tracer.spans(trace_id=root.trace_id) == [root, child]
        assert tracer.spans(session="s-1") == [root, child]
        assert tracer.span(child.span_id) is child
        assert tracer.span("missing") is None
        assert isinstance(Span.wire(root, 0.0), dict)
