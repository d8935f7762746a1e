"""Router behavior: typed rejects, least-loaded routing, determinism."""

import json

import pytest

from repro.api import Media, OpenSessionRequest, RejectReason, SessionState
from repro.cluster import build_cluster
from repro.errors import ParameterError
from repro.scenarios import get

pytestmark = pytest.mark.cluster

CLUSTER = get("cluster-scale")

#: The four-node failover acceptance run: node 1 dies at the second of
#: the three boundaries between its four chunks.
FAILOVER = {
    "nodes": 4, "sessions": 32, "titles": 8, "seconds": 2.0,
    "per_node_streams": 24, "min_replicas": 2, "chunks": 4,
    "kill_node": 1, "kill_chunk": 2,
}


def _small_cluster(**overrides):
    defaults = dict(
        nodes=3, titles=4, seconds=1.0, per_node_streams=4,
        min_replicas=2, clients=["alice", "bob"],
    )
    defaults.update(overrides)
    return build_cluster(**defaults)


class TestAdmission:
    def test_open_is_routed_to_a_replica(self):
        cluster, _ = _small_cluster()
        result = cluster.serve([
            OpenSessionRequest(client_id="alice", rope_id="T01"),
        ])
        [status] = result.statuses
        assert status.state is SessionState.COMPLETED
        assert status.node_id in cluster.placement.replicas("T01")
        assert result.admitted == 1

    def test_unknown_title_is_typed_unknown_rope(self):
        cluster, _ = _small_cluster()
        result = cluster.serve([
            OpenSessionRequest(client_id="alice", rope_id="T99"),
        ])
        assert result.admitted == 0
        [reject] = result.rejects
        assert reject.reject is RejectReason.UNKNOWN_ROPE

    def test_overload_is_typed_no_replica(self):
        # 2 replicas x 2 streams = 4 slots for T01; the 5th viewer must
        # be refused with the typed cluster reject, not an exception.
        cluster, _ = _small_cluster(
            per_node_streams=2,
            clients=[f"client-{i}" for i in range(5)],
        )
        slots = 2 * len(cluster.placement.replicas("T01"))
        requests = [
            OpenSessionRequest(client_id=f"client-{i}", rope_id="T01")
            for i in range(slots + 1)
        ]
        result = cluster.serve(requests)
        assert result.admitted == slots
        assert [r.reject for r in result.rejects] == [
            RejectReason.NO_REPLICA
        ]

    @pytest.mark.parametrize("chunks", [1, 2])
    def test_malformed_or_empty_requests_are_refused_like_a_server(self, chunks):
        """Regression: ``start=-1`` completed at one chunk and not at two
        (a server played it whole), and a NaN arrival raised a bare
        ``ValueError``.  The request refuses itself when built; what is
        well-formed but selects nothing — a finite ``length <= 0``, or
        audio on a video-only title — is EMPTY_INTERVAL on a node that
        then holds no slot and no pin."""
        cluster, _ = _small_cluster()
        for field, value in (("start", -1.0), ("arrival", float("nan"))):
            with pytest.raises(ParameterError, match=field):
                cluster.serve(
                    [OpenSessionRequest("alice", "T01", **{field: value})],
                    chunks=chunks,
                )
        result = cluster.serve([
            OpenSessionRequest("alice", "T01", length=0.0),
            OpenSessionRequest("bob", "T02", media=Media.AUDIO),
        ], chunks=chunks)
        assert result.admitted == 0
        assert [r.reject for r in result.rejects] == (
            [RejectReason.EMPTY_INTERVAL] * 2
        )
        for node in cluster.nodes:
            assert node.active == 0
            assert node.server.mrs.msm.admission.active_count == 0
            assert node.server.cache.pinned_count == 0

    def test_routing_prefers_least_loaded_replica(self):
        cluster, _ = _small_cluster(
            clients=[f"client-{i}" for i in range(4)]
        )
        replicas = cluster.placement.replicas("T01")
        requests = [
            OpenSessionRequest(client_id=f"client-{i}", rope_id="T01")
            for i in range(4)
        ]
        result = cluster.serve(requests)
        placed = [s.node_id for s in result.statuses]
        # Opens alternate across the replica set instead of piling onto
        # the first node.
        counts = {node: placed.count(node) for node in replicas}
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_admission_order_is_recorded(self):
        cluster, _ = _small_cluster()
        result = cluster.serve([
            OpenSessionRequest(
                client_id="bob", rope_id="T02", arrival=0.02
            ),
            OpenSessionRequest(
                client_id="alice", rope_id="T01", arrival=0.01
            ),
        ])
        # Sorted by arrival: alice first despite submission order.
        sessions = [sid for sid, _node in result.admission_order]
        by_id = {s.session_id: s for s in result.statuses}
        assert by_id[sessions[0]].client_id == "alice"


class TestDeterminism:
    def test_same_seed_and_fault_plan_byte_identical(self):
        # The ISSUE's router-determinism bar: same seed + same fault
        # plan => byte-identical placement map, admission order, and
        # handoff decisions across two independent runs.
        a = CLUSTER(**FAILOVER, seed=7).run()
        b = CLUSTER(**FAILOVER, seed=7).run()
        assert json.dumps(
            a.result.to_dict(), sort_keys=True
        ) == json.dumps(b.result.to_dict(), sort_keys=True)
        assert a.result.placement == b.result.placement
        assert a.result.admission_order == b.result.admission_order
        assert a.result.handoffs == b.result.handoffs

    def test_different_seed_changes_the_workload(self):
        a = CLUSTER(
            nodes=3, sessions=8, titles=4, per_node_streams=8, seed=1
        ).run()
        b = CLUSTER(
            nodes=3, sessions=8, titles=4, per_node_streams=8, seed=2
        ).run()
        assert a.result.admission_order != b.result.admission_order


class TestClusterObservability:
    def test_router_counters_and_spans(self):
        run = CLUSTER(
            nodes=3, sessions=8, titles=4, per_node_streams=8
        ).run()
        registry = run.obs.registry
        opened = sum(
            registry.peek_counter(f"cluster.routed.{n.node_id}") or 0
            for n in run.result.nodes
        )
        assert opened == run.result.admitted
        roots = [
            span for span in run.obs.tracer.spans()
            if span.name == "cluster.request"
        ]
        assert len(roots) == len(run.result.statuses)

    def test_scale_run_reports_bounds(self):
        run = CLUSTER(
            nodes=3, sessions=8, titles=4, per_node_streams=8
        ).run()
        assert run.bounds.full_catalog == 3 * 8
        assert run.result.admitted <= run.bounds.full_catalog
        assert run.bounds.demand_total == 8
