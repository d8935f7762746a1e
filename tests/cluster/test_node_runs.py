"""The cluster on its nodes' own timelines: one run per node per serve.

``MediaCluster.serve`` takes each open at its arrival and each node kill
at its time, and brings a node's run to an event only once one of its
sessions could have played out by then.  So a session's blocks are its
interval's blocks, read once; a kill hands off at its own time, each
session re-opening on a survivor from the first block it was not sent;
and the opens routed to a node wait for its run together, so those of
one batching window are one batch.

A Hypothesis test drives generated clusters — two to four nodes, titles
of several lengths, opens spread over time and an optional node kill —
and checks item 1(b)'s cluster invariants after each ``serve``
(:func:`assert_the_cluster_holds`).
"""

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.api import Media, OpenSessionRequest, RejectReason, SessionState
from repro.cluster import (
    CatalogTitle,
    MediaCluster,
    PlacementPolicy,
    build_cluster,
    build_node,
    demand_max_flow,
)
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.service import PlaybackSession
from tests.server.test_live_set import fuzz_budget

pytestmark = pytest.mark.cluster

CLIENTS = [f"client-{i}" for i in range(12)]


def kill_at(node_index, at_time):
    return FaultPlan([FaultSpec(
        kind=FaultKind.HEAD_FAILURE, at_time=at_time, drive_index=node_index,
    )], seed=0)


def one_title(**overrides):
    """Two nodes holding one 1-s title, warmed."""
    return build_cluster(**{
        "nodes": 2, "titles": 1, "per_node_streams": 2, "clients": CLIENTS,
        **overrides,
    })[0]


def video(client, title, arrival=0.0):
    return OpenSessionRequest(client, title, arrival=arrival, media=Media.VIDEO)


@pytest.mark.parametrize("chunks", [1, 2, 4])
def test_a_title_delivers_its_blocks_once_whatever_the_chunks(chunks):
    """A 1-s title is 8 blocks; with a chunk epoch per ``chunks``, a block
    straddling a boundary was read once per chunk: 8 / 9 / 10."""
    result = one_title().serve([video("client-0", "T01")], chunks=chunks)
    (status,) = result.statuses
    assert status.state is SessionState.COMPLETED
    assert status.blocks_delivered == 8
    assert sum(node.blocks_delivered for node in result.per_node) == 8


def test_a_kill_at_a_time_hands_off_at_that_time():
    """node-00 dies at 0.4 s, half way into a 1-s title: the session
    re-opens on node-01 at 0.4 s from the first block node-00 had not
    sent, and plays the title's 8 blocks once, without a glitch (a kill
    used to fire at the first chunk boundary past its time)."""
    cluster = one_title(fault_plan=kill_at(0, 0.4))
    result = cluster.serve([video("client-0", "T01")], chunks=4)
    (handoff,) = result.handoffs
    (status,) = result.statuses
    assert (handoff.from_node, handoff.to_node) == ("node-00", "node-01")
    assert handoff.at_time == 0.4 and handoff.clean
    assert 0 < handoff.blocks_before < 8
    assert status.state is SessionState.COMPLETED and status.continuous
    assert status.blocks_delivered == 8 and status.handoffs == 1
    dead, target = (node.results[0] for node in result.per_node)
    (cut,) = dead.block_sequences.values()
    (rest,) = target.block_sequences.values()
    assert len(cut) == handoff.blocks_before and len(cut) + len(rest) == 8
    assert dead.statuses[0].state is SessionState.STOPPED
    assert [node.alive for node in result.nodes] == [False, True]


def test_the_opens_a_node_is_routed_in_one_window_are_one_batch():
    """Three viewers of a title on a one-node cluster, 0.05 s apart: they
    wait for the node's run together and are admitted as one batch, one
    leader reading for all three."""
    cluster = build_cluster(
        nodes=1, titles=1, per_node_streams=4, min_replicas=1,
        clients=CLIENTS,
    )[0]
    result = cluster.serve(
        [video(f"client-{i}", "T01", 0.05 * i) for i in range(3)]
    )
    (run,) = result.per_node[0].results
    assert run.batches == 1
    assert len({status.batch_leader for status in run.statuses}) == 1
    assert result.continuous_sessions == 3


# -- generated clusters ----------------------------------------------------------

#: Each title's length, seconds.
LENGTH = {"T01": 0.5, "T02": 1.0, "T03": 2.0}


def build(nodes, per_node_streams, fault_plan):
    """*nodes* nodes sharing the titles of :data:`LENGTH`, each on two
    replicas, warmed."""
    catalog = [
        CatalogTitle(title_id, seconds, popularity=1.0 / rank)
        for rank, (title_id, seconds) in enumerate(LENGTH.items(), start=1)
    ]
    ids = [f"node-{i:02d}" for i in range(nodes)]
    placement = PlacementPolicy(min_replicas=2).plan(
        catalog, ids, per_node_streams
    )
    built = []
    for node_id in ids:
        node = build_node(node_id, per_node_streams)
        for title in catalog:
            if node_id in placement.replicas(title.title_id):
                node.record_title(title, CLIENTS + ["warmer"])
                node.warm(title.title_id)
        built.append(node)
    return MediaCluster(built, placement, fault_plan=fault_plan)


def interval_blocks(cluster, title_id):
    """Blocks in the plan of *title_id* played whole, on a replica."""
    (node_id, *_) = cluster.placement.replicas(title_id)
    node = next(node for node in cluster.nodes if node.node_id == node_id)
    mrs = node.server.mrs
    request_id = mrs.open_request("warmer", node.rope_for(title_id))
    blocks = len(PlaybackSession(mrs).fetch_sequence(request_id))
    mrs.stop(request_id)
    return blocks


def assert_the_cluster_holds(cluster, requests, result, kill):
    """Item 1(b)'s cluster invariants for one ``serve``."""
    # Every session is answered once.
    ids = [status.session_id for status in result.statuses]
    assert len(ids) == len(set(ids)) == len(requests)
    by_client = {request.client_id: request for request in requests}
    assert sorted(by_client) == sorted(s.client_id for s in result.statuses)
    admitted = {sid for sid, _node in result.admission_order}
    refused = {response.session_id for response in result.rejects}
    for status in result.statuses:
        # None is lost or duplicated, across a handoff or not: a session
        # the router admitted completes with its interval's blocks, each
        # once, or ends refused, and one it refused never played.
        if status.state is SessionState.COMPLETED:
            assert status.session_id in admitted
            assert status.blocks_delivered + status.skips == (
                interval_blocks(cluster, status.rope_id)
            ), status
        else:
            assert status.state is SessionState.REJECTED, status
            assert status.session_id in refused
    assert admitted | refused == set(ids)
    # Each handoff is at its kill's time, from the node killed.
    for record in result.handoffs:
        assert kill is not None
        assert (record.from_node, record.at_time) == (
            f"node-{kill[0]:02d}", kill[1]
        )
        assert record.to_node != record.from_node
    # Nodes' blocks are sessions' blocks, and each run lists what it read.
    assert sum(node.blocks_delivered for node in result.per_node) == sum(
        status.blocks_delivered for status in result.statuses
    )
    for node in result.per_node:
        for run in node.results:
            for status in run.statuses:
                sequence = run.block_sequences.get(status.session_id, ())
                assert status.blocks_delivered + status.skips == sum(
                    slot is not None for slot in sequence
                )
    capacity = cluster.nodes[0].capacity
    # Admitted <= the demand max-flow, while every session overlaps.
    if max(r.arrival for r in requests) < min(
        r.arrival + LENGTH[r.rope_id] for r in requests
    ):
        demand = {}
        for request in requests:
            demand[request.rope_id] = demand.get(request.rope_id, 0) + 1
        assert len(admitted) <= demand_max_flow(
            cluster.placement, demand, capacity
        )
    # Refused ``no_replica`` only with every replica full at the arrival:
    # *capacity* sessions routed there before, not yet played out then
    # (read where no node died, each session played without a glitch,
    # and no node refused one).
    played = [
        (by_client[s.client_id], s) for s in result.statuses
        if s.state is SessionState.COMPLETED
    ]
    if kill is not None or any(s.misses or s.skips for _, s in played) or any(
        r.reject is not RejectReason.NO_REPLICA for r in result.rejects
    ):
        return
    for status in result.statuses:
        if status.state is not SessionState.REJECTED:
            continue
        request = by_client[status.client_id]
        for node_id in cluster.placement.replicas(request.rope_id):
            live = sum(
                1 for r, s in played
                if s.node_id == node_id and s.session_id < status.session_id
                and request.arrival
                < r.arrival + s.startup_latency + LENGTH[r.rope_id] + 1e-9
            )
            assert live >= capacity, (status, node_id, live)


@settings(max_examples=fuzz_budget(100), deadline=None)
@given(
    nodes=st.integers(2, 4),
    per_node_streams=st.integers(1, 3),
    opens=st.lists(
        st.tuples(
            st.sampled_from(sorted(LENGTH)),
            st.sampled_from((0.0, 0.05, 0.3, 0.6, 1.2, 2.5)),
        ),
        min_size=1, max_size=10,
    ),
    kill=st.none() | st.tuples(
        st.integers(0, 3), st.sampled_from((0.0, 0.2, 0.45, 0.7, 1.5)),
    ),
    chunks=st.integers(1, 4),
)
def test_a_generated_cluster_keeps_its_invariants(
    nodes, per_node_streams, opens, kill, chunks,
):
    """*chunks* places only an ``at_op`` kill, so with the kill given by
    ``at_time`` it must change nothing."""
    if kill is not None:
        kill = (kill[0] % nodes, kill[1])
    cluster = build(
        nodes, per_node_streams,
        kill_at(*kill) if kill is not None else None,
    )
    requests = [
        video(CLIENTS[i], title, arrival)
        for i, (title, arrival) in enumerate(opens)
    ]
    result = cluster.serve(requests, chunks=chunks)
    event(f"handed off: {bool(result.handoffs)}, refused: {bool(result.rejects)}")
    assert_the_cluster_holds(cluster, requests, result, kill)


test_a_generated_cluster_keeps_its_invariants = pytest.mark.fuzz(
    test_a_generated_cluster_keeps_its_invariants
)
