"""One cluster node: a MediaServer owning its own drive array and cache.

A :class:`ClusterNode` wraps one :class:`repro.server.MediaServer`
(and, through it, a private drive, storage manager, rope server, block
cache, and §3.4 admission controller) behind the cluster-facing
concerns the router needs:

* the **title -> local rope** map — clients address catalog titles, the
  node resolves them to the rope it recorded its replica into;
* **admission slack** — how many more cluster sessions the node will
  accept per chunk epoch (the router's least-loaded choice reads this);
* **liveness** — a node killed by the cluster fault plan refuses all
  further work, and a :class:`repro.faults.FaultInjector` with an
  immediate HEAD_FAILURE is attached to its drive so any stray access
  fails fast rather than silently succeeding.

Nodes never talk to each other; all cross-node decisions (routing,
handoff) live in :class:`repro.cluster.MediaCluster`.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.api import NodeStatus, OpenSessionRequest, ServeResult
from repro.config import TESTBED_1991
from repro.errors import ParameterError, check_count
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.media.frames import frames_for_duration
from repro.rope import Media
from repro.server.media_server import MediaServer, build_media_server
from repro.service.session import PlaybackSession

from repro.cluster.placement import CatalogTitle

__all__ = ["ClusterNode", "build_node"]


class ClusterNode:
    """One shard of the cluster: a MediaServer plus routing metadata."""

    def __init__(
        self,
        node_id: str,
        server: MediaServer,
        capacity: int,
    ):
        if not node_id:
            raise ParameterError("node_id must be non-empty")
        check_count(f"node {node_id}: capacity", capacity)
        self.node_id = node_id
        self.server = server
        #: Cluster sessions the node accepts concurrently per epoch.
        self.capacity = capacity
        self.alive = True
        #: Cluster sessions currently placed here (the router's count).
        self.active = 0
        #: title -> the node's local rope id for its replica.
        self.local_ropes: Dict[str, str] = {}

    # -- catalog ------------------------------------------------------------------

    def record_title(
        self,
        title: CatalogTitle,
        clients: Sequence[str],
    ) -> str:
        """Record this node's replica of *title*; returns the rope id.

        Every replica records from the same deterministic frame source
        (``title_id`` itself), so two replicas of a title are
        bit-identical strands and a handed-off session resumes on
        exactly the content it left.
        """
        if title.title_id in self.local_ropes:
            raise ParameterError(
                f"node {self.node_id} already holds {title.title_id!r}"
            )
        frames = frames_for_duration(
            TESTBED_1991.video, title.seconds, source=title.title_id
        )
        request_id, rope_id = self.server.mrs.record(
            "librarian", frames=frames, play_access=tuple(clients)
        )
        self.server.mrs.stop(request_id)
        self.local_ropes[title.title_id] = rope_id
        return rope_id

    def rope_for(self, title_id: str) -> str:
        """The local rope holding *title_id* (KeyError if not a replica)."""
        return self.local_ropes[title_id]

    def title_duration(self, title_id: str) -> float:
        """Recorded duration of the node's replica of *title_id*."""
        return self.server.mrs.get_rope(self.rope_for(title_id)).duration

    def warm(self, title_id: str) -> None:
        """Make the title's blocks resident: read its replica through the
        cache in the order one session plays it.  Warm-up is set-up state,
        not a served session, so it costs the drive and the cache what
        that session's reads would and leaves no session behind."""
        mrs = self.server.mrs
        request_id = mrs.open_request(
            "warmer", self.rope_for(title_id), media=Media.VIDEO
        )
        fetches = PlaybackSession(mrs).fetch_sequence(request_id)
        mrs.stop(request_id)
        read = self.server.drive.read_slot
        for slot, bits in zip(fetches.slots, fetches.bits):
            if slot is not None:
                read(slot, bits)

    # -- routing state ------------------------------------------------------------

    def has_slack(self) -> bool:
        """Whether the router may admit one more session here."""
        return self.alive and self.active < self.capacity

    def kill(self) -> None:
        """The node's mechanism dies; its drive fails all later access."""
        if not self.alive:
            return
        self.alive = False
        self.server.mrs.msm.drive.attach_injector(
            FaultInjector(
                FaultPlan(
                    [FaultSpec(kind=FaultKind.HEAD_FAILURE, at_op=0)]
                )
            )
        )

    def status(self) -> NodeStatus:
        """The node's cluster-addressed health snapshot."""
        return NodeStatus(
            node_id=self.node_id,
            alive=self.alive,
            degraded=False,
            sessions=self.active,
            titles=tuple(sorted(self.local_ropes)),
        )

    # -- serving ------------------------------------------------------------------

    def serve(self, requests: Sequence[OpenSessionRequest]) -> ServeResult:
        """Serve one chunk epoch: every status in the result is of a
        session this call's opens created, which the router matches back
        to its cluster sessions."""
        if not self.alive:
            raise ParameterError(
                f"node {self.node_id} is dead and cannot serve"
            )
        return self.server.serve(requests)


def build_node(node_id: str, capacity: int, obs=None) -> ClusterNode:
    """A ClusterNode over a fresh testbed drive and storage manager, with
    :func:`build_media_server`'s 512-block cache and 0.25-s batching
    window."""
    # Per-drive profiler rollups should distinguish the shards.
    server = build_media_server(obs=obs, label=f"{node_id}.drive")
    return ClusterNode(node_id=node_id, server=server, capacity=capacity)
