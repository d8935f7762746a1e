"""End-to-end trace integration: one session, one connected tree.

The acceptance bar for the tracing subsystem: running the golden steady
server scenario, every session's spans — from the MRS front end through
the marshalled RPC boundary into the MSM admission, then per-round
service, cache, and disk access — form a *single* connected tree rooted
at ``server.request``, and the whole export is reproducible bit for bit
under the fixed seed.
"""

import json

import pytest

from repro.scenarios import get

pytestmark = [pytest.mark.server, pytest.mark.trace]


@pytest.fixture(scope="module")
def steady_tracer():
    return get("server-steady")().run().obs.tracer


def _session_roots(tracer):
    roots = tracer.spans(name="server.request")
    assert roots, "steady scenario produced no session root spans"
    return roots


class TestConnectedTree:
    def test_every_session_trace_is_one_connected_tree(self, steady_tracer):
        for root in _session_roots(steady_tracer):
            assert steady_tracer.trace_is_connected(root.trace_id)
            assert steady_tracer.roots_of(root.trace_id) == [root]

    def test_admission_path_crosses_the_rpc_boundary(self, steady_tracer):
        tracer = steady_tracer
        for root in _session_roots(tracer):
            names = {
                span.name for span in tracer.spans(trace_id=root.trace_id)
            }
            # MRS front end -> marshalled RPC -> MSM admission.
            assert {"server.admit", "rpc.admit", "msm.admit"} <= names
            # Service rounds down to the disk arm, cache included.
            assert {
                "service.stream", "service.block",
                "cache.read", "disk.access",
            } <= names

    def test_disk_access_ancestry_reaches_server_request(
        self, steady_tracer
    ):
        tracer = steady_tracer
        for access in tracer.spans(name="disk.access"):
            span, hops = access, 0
            while span.parent_id is not None:
                span = tracer.span(span.parent_id)
                assert span is not None, "dangling parent reference"
                hops += 1
                assert hops < 32, "unreasonably deep span ancestry"
            assert span.name == "server.request"
            assert span.session == access.session

    def test_admit_chain_parents_in_order(self, steady_tracer):
        tracer = steady_tracer
        for msm in tracer.spans(name="msm.admit"):
            rpc = tracer.span(msm.parent_id)
            assert rpc is not None and rpc.name == "rpc.admit"
            admit = tracer.span(rpc.parent_id)
            assert admit is not None and admit.name == "server.admit"
            root = tracer.span(admit.parent_id)
            assert root is not None and root.name == "server.request"

    def test_spans_cover_every_session(self, steady_tracer):
        sessions = {
            root.session for root in _session_roots(steady_tracer)
        }
        assert len(sessions) == len(_session_roots(steady_tracer))
        assert None not in sessions

    def test_no_spans_dropped_or_left_open(self, steady_tracer):
        summary = steady_tracer.summary_dict()
        assert summary["dropped"] == 0
        assert summary["open"] == 0
        assert summary["orphans"] == 0


class TestDeterministicExport:
    def test_rerun_exports_byte_identical_trace(self, steady_tracer):
        first = json.dumps(
            steady_tracer.to_chrome_trace(), indent=2, sort_keys=True
        )
        second = json.dumps(
            get("server-steady")().run().obs.tracer.to_chrome_trace(),
            indent=2,
            sort_keys=True,
        )
        assert first == second

    def test_span_timestamps_are_simulated_not_wall(self, steady_tracer):
        # Wall-clock leakage shows up as huge epoch-scale timestamps;
        # the simulated clock stays within the scenario's run seconds.
        latest = max(
            span.end for span in steady_tracer.spans() if span.end
        )
        assert latest < 1e4
