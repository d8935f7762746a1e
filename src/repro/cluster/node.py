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
from repro.errors import ParameterError
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.media.frames import frames_for_duration
from repro.rope import Media
from repro.server.media_server import MediaServer, build_media_server

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
        if capacity < 1:
            raise ParameterError(
                f"node {node_id}: capacity must be >= 1, got {capacity}"
            )
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

    def holds(self, title_id: str) -> bool:
        """Whether this node stores a replica of *title_id*."""
        return title_id in self.local_ropes

    def title_duration(self, title_id: str) -> float:
        """Recorded duration of the node's replica of *title_id*."""
        return self.server.mrs.get_rope(self.rope_for(title_id)).duration

    def warm(self, title_id: str) -> ServeResult:
        """Play one warm-up session so the title's blocks go resident."""
        return self.serve([
            OpenSessionRequest(
                client_id="warmer",
                rope_id=self.rope_for(title_id),
                arrival=0.0,
                media=Media.VIDEO,
            )
        ])

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


def build_node(
    node_id: str,
    capacity: int,
    cache_blocks: int = 512,
    batch_window: float = 0.25,
    obs=None,
) -> ClusterNode:
    """A ClusterNode over a fresh testbed drive and storage manager."""
    server = build_media_server(
        obs=obs,
        cache_blocks=cache_blocks,
        batch_window=batch_window,
        # Per-drive profiler rollups should distinguish the shards.
        label=f"{node_id}.drive",
    )
    return ClusterNode(node_id=node_id, server=server, capacity=capacity)
