"""A warm node is its plan read through the cache.

``ClusterNode.warm`` reads a replica's playback plan through the node's
cache front end instead of serving a warm-up session.  The differential
tests pin that the two leave the same machine behind — resident slots
in the same LRU order, the same cache counters, the same drive counters
and modeled seconds — with and without an observer.  The op-count test
pins what warming no longer does: no MediaServer session, no RPC call,
no service round, no span, and no MRS request left open.
"""

from dataclasses import asdict

import pytest

from repro.api import Media, OpenSessionRequest
from repro.cluster import build_cluster
from repro.obs import Observability
from repro.service.rounds import RoundRobinService

pytestmark = pytest.mark.cluster

#: Three nodes, six titles, two replicas each: 2.1-s titles end on a
#: partly filled block, so a read's payload size shows in transfer time.
SHAPE = {"nodes": 3, "titles": 6, "seconds": 2.1, "min_replicas": 2}


def _twin(observed):
    obs = Observability(seed=3) if observed else None
    cluster, _catalog = build_cluster(**SHAPE, obs=obs, warm=False)
    return cluster, obs


def _machine(node):
    """What warming leaves behind on one node's cache and drive."""
    cache, drive = node.server.cache, node.server.mrs.msm.drive
    return {
        "resident": list(cache._resident),
        "cache": asdict(cache.stats),
        "drive": asdict(drive.stats),
    }


def _warm_by_serving(node, title_id):
    node.serve([
        OpenSessionRequest(
            "warmer", node.rope_for(title_id), arrival=0.0, media=Media.VIDEO
        )
    ])


@pytest.mark.parametrize("observed", [False, True], ids=["plain", "observed"])
def test_warming_leaves_what_a_warm_up_session_leaves(observed):
    by_state, _ = _twin(observed)
    by_serving, _ = _twin(observed)
    for node, twin in zip(by_state.nodes, by_serving.nodes):
        for title_id in sorted(node.local_ropes):
            node.warm(title_id)
            _warm_by_serving(twin, title_id)
        warmed, served = _machine(node), _machine(twin)
        assert warmed["resident"], node.node_id
        assert warmed == served, node.node_id


def test_later_request_ids_stay_aligned():
    by_state, _ = _twin(False)
    by_serving, _ = _twin(False)
    node, twin = by_state.nodes[0], by_serving.nodes[0]
    title_id = sorted(node.local_ropes)[0]
    node.warm(title_id)
    _warm_by_serving(twin, title_id)
    rope_id = node.rope_for(title_id)
    assert node.server.mrs.open_request("warmer", rope_id) == (
        twin.server.mrs.open_request("warmer", rope_id)
    )


def test_warming_serves_no_session(monkeypatch):
    cluster, obs = _twin(True)
    rounds = []
    run = RoundRobinService.run
    monkeypatch.setattr(
        RoundRobinService, "run",
        lambda self, *a, **k: (rounds.append(1), run(self, *a, **k))[1],
    )
    spans = len(obs.tracer)
    for node in cluster.nodes:
        for title_id in sorted(node.local_ropes):
            node.warm(title_id)
        server = node.server
        assert server.sessions() == [], node.node_id
        assert server.channel.call_count == 0, node.node_id
        assert server.mrs.active_requests() == [], node.node_id
        assert len(server.cache) > 0, node.node_id
    assert rounds == []
    assert len(obs.tracer) == spans
