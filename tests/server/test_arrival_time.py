"""Arrival time is real: what §3.4 asks of the front door.

Admission is decided when a request arrives, against the requests being
served then, and a session frees its slot once it has played out: so
sessions that never overlap do not reject each other, and a late
session's start-up pays for no k sized for an earlier one.  A session
joins the service loop at its own arrival, plays no block before it,
and its start-up is measured from it (``test_live_set.py``'s state
machine checks both after every ``serve``).  A cluster routes each open
at its arrival, with each node's run brought there once one of its
sessions could have played out, so a cluster's sessions that never
overlap do not reject each other either.
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


def test_sessions_that_never_overlap_are_all_admitted_by_one_server():
    """With one epoch-wide admission, 3 were admitted and 3 refused
    ``capacity``."""
    server, rope_id = one_server()
    result = server.serve(spaced_opens([rope_id], 6, 100.0))
    assert result.admitted == 6 and not result.rejects


def test_sessions_that_never_overlap_are_all_admitted_by_a_cluster():
    """When every open was routed against the router's own count before
    any node's loop ran, 4 were admitted and 6 refused ``no_replica``."""
    cluster, titles = build_cluster(
        nodes=2, titles=2, per_node_streams=2, clients=CLIENTS, warm=False
    )
    result = cluster.serve(
        spaced_opens([title.title_id for title in titles], 10, 100.0)
    )
    assert [r.reject for r in result.rejects] == []
    assert result.admitted == 10


def test_start_up_is_measured_from_the_sessions_own_arrival():
    """A late session starts up as the same session does alone.  The lone
    reference is a second ``serve`` on the same server, so in both the
    head starts where a first session left it.  With one epoch-wide k
    sized after both admissions, the late session read 0.1067 s against
    0.0376 s alone."""
    server, rope_id = one_server()
    server.serve(spaced_opens([rope_id], 1, 0.0))
    alone = server.serve(spaced_opens([rope_id], 1, 0.0)).statuses[0]
    server, rope_id = one_server()
    late = server.serve(spaced_opens([rope_id], 2, 300.0)).statuses[1]
    assert late.startup_latency == pytest.approx(alone.startup_latency, abs=1e-9)
