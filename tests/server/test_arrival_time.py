"""Arrival time is real: ROADMAP item 16's three probes.

Each probe states what §3.4 asks of the front door, and each is a strict
expected failure until the sub-item named on it lands: admission is
decided when a request arrives, against the requests being served then
(16(b)), and a session's start-up is measured from its own arrival
(16(a)).  At the parent of these tests, sessions that never overlap
reject each other, and a late arrival reports the start-up of an early
one.
"""

import pytest

from repro.api import Media, OpenSessionRequest
from repro.cluster.router import build_cluster
from repro.scenarios.server import record_strands
from repro.server import build_media_server

pytestmark = pytest.mark.server

CLIENTS = [f"client-{i}" for i in range(10)]


def one_server():
    """Cache 0, no batching: every session is an admission of its own."""
    server = build_media_server(cache_blocks=0, batch_window=0.0)
    rope_id = record_strands(server.mrs, 1, 1.0, CLIENTS, "t")[0]
    return server, rope_id


def spaced_opens(rope_ids, count, gap):
    """*count* 1-s video sessions arriving *gap* seconds apart."""
    return [
        OpenSessionRequest(
            client_id=CLIENTS[i], rope_id=rope_ids[i % len(rope_ids)],
            arrival=i * gap, media=Media.VIDEO,
        )
        for i in range(count)
    ]


@pytest.mark.xfail(strict=True, reason="item 16(b): admission is one epoch")
def test_sessions_that_never_overlap_are_all_admitted_by_one_server():
    """At the parent, 3 are admitted and 3 refused ``capacity``."""
    server, rope_id = one_server()
    result = server.serve(spaced_opens([rope_id], 6, 100.0))
    assert result.admitted == 6 and not result.rejects


@pytest.mark.xfail(strict=True, reason="item 16(b): admission is one epoch")
def test_sessions_that_never_overlap_are_all_admitted_by_a_cluster():
    """At the parent, 4 are admitted and 6 refused ``no_replica``."""
    cluster, titles = build_cluster(
        nodes=2, titles=2, per_node_streams=2, clients=CLIENTS, warm=False
    )
    result = cluster.serve(
        spaced_opens([title.title_id for title in titles], 10, 100.0)
    )
    assert [r.reject for r in result.rejects] == []
    assert result.admitted == 10


@pytest.mark.xfail(strict=True, reason="item 16(a): a join is a round number")
def test_start_up_is_measured_from_the_sessions_own_arrival():
    """At the parent, the second session reports ~0.5 s at every gap."""
    server, rope_id = one_server()
    alone = server.serve(spaced_opens([rope_id], 1, 0.0)).statuses[0]
    server, rope_id = one_server()
    late = server.serve(spaced_opens([rope_id], 2, 300.0)).statuses[1]
    assert late.startup_latency == pytest.approx(alone.startup_latency, abs=1e-9)
