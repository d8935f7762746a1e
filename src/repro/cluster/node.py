"""One cluster node: a MediaServer owning its own drive array and cache.

A :class:`ClusterNode` wraps one :class:`repro.server.MediaServer`
(and, through it, a private drive, storage manager, rope server, block
cache, and §3.4 admission controller) behind the cluster-facing
concerns the router needs:

* the **title -> local rope** map — clients address catalog titles, the
  node resolves them to the rope it recorded its replica into;
* **admission slack** — how many more cluster sessions the node will
  accept, read from its own live set: its server's run's sessions and
  the opens routed to it that wait for that run (the router's
  least-loaded choice reads this);
* **liveness** — a node killed by the cluster fault plan refuses all
  further work, and a :class:`repro.faults.FaultInjector` with an
  immediate HEAD_FAILURE is attached to its drive so any stray access
  fails fast rather than silently succeeding.

Nodes never talk to each other; all cross-node decisions (routing,
handoff) live in :class:`repro.cluster.MediaCluster`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import (
    NodeStatus,
    OpenSessionRequest,
    ServeResult,
    SessionState,
    StopRequest,
)
from repro.config import TESTBED_1991
from repro.errors import ParameterError, check_count
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.media.frames import frames_for_duration
from repro.rope import Media
from repro.server.media_server import MediaServer, _Epoch, build_media_server
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
        #: Cluster sessions the node accepts concurrently.
        self.capacity = capacity
        self.alive = True
        #: title -> the node's local rope id for its replica.
        self.local_ropes: Dict[str, str] = {}
        #: A cluster serve's run of the server (None outside one), the
        #: opens routed here that wait to be submitted to it, and the
        #: cluster session each of the run's sessions plays.
        self._run: Optional[_Epoch] = None
        self._pending: List[Tuple[OpenSessionRequest, object]] = []
        self._plays: Dict[str, object] = {}

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

    def _live(self) -> int:
        """Sessions live here: the run's, and the opens waiting for it."""
        return len(self._pending) + (len(self._run.live()) if self._run else 0)

    def has_slack(self) -> bool:
        """Whether the router may admit one more session here."""
        return self.alive and self._live() < self.capacity

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
            sessions=self._live(),
            titles=tuple(sorted(self.local_ropes)),
        )

    # -- serving ------------------------------------------------------------------

    def serve(self, requests: Sequence[OpenSessionRequest]) -> ServeResult:
        """Serve *requests* on this node alone: one ``MediaServer.serve``."""
        if not self.alive:
            raise ParameterError(
                f"node {self.node_id} is dead and cannot serve"
            )
        return self.server.serve(requests)

    # -- a cluster serve's run ----------------------------------------------------

    def _start(self) -> None:
        """A cluster serve begins: one run of the server for all of it,
        each plan built once in it."""
        self._run = _Epoch(self.server)
        self.server._plans = {}

    def _submit(self, *remainders: Tuple[OpenSessionRequest, object]) -> None:
        """Submit the waiting opens, and *remainders*, to the run, each at
        its own time, and note whose session each one opened."""
        pending = self._pending + list(remainders)
        self._pending = []
        owner = {id(request): session for request, session in pending}
        run, known = self._run, len(self._run.touched)
        run.feed([request for request, _ in pending])
        for sid in run.touched[known:]:
            self._plays[sid] = owner[id(self.server._sessions[sid].opened)]

    def _catch_up(self, at: float) -> None:
        """Bring the run to *at* if a session here could have played out
        by then (a slot may be free at *at*); the waiting opens, which
        arrived before, are submitted first."""
        if self._run.frees_by(at) or any(
            session.arrival + session.length <= at
            for _, session in self._pending
        ):
            self._submit()
            self._run.catch_up(at)

    def _halt(self, at: float) -> List[Tuple[object, int]]:
        """The node dies at *at*: each session still playing is stopped
        there.  Returns the cluster session of each that had blocks left
        to read, with the first block of its interval it was not sent."""
        self._submit()
        run, cut = self._run, []
        run.catch_up(at)   # what played out by then completes
        for sid, owner in self._plays.items():
            session = self.server._sessions[sid]
            if session.state is not SessionState.PLAYING:
                continue
            run.submit(at, StopRequest(sid, arrival=at), 0)
            stream = run.streams.get(sid)
            read = stream.next_fetch if stream is not None else 0
            if stream is None or read < len(stream.fetches.slots):
                cut.append((owner, session.first_block + read))
        return cut

    def _finish(self) -> Tuple[Optional[ServeResult], Dict[str, object]]:
        """The run plays out and ends: its result (None if it was given
        nothing) and the cluster session each of its sessions played."""
        self._submit()
        run, plays = self._run, self._plays
        self._run, self._plays = None, {}
        result = run.finish()
        self.server._plans = None
        return (result if plays else None), plays


def build_node(node_id: str, capacity: int, obs=None) -> ClusterNode:
    """A ClusterNode over a fresh testbed drive and storage manager, with
    :func:`build_media_server`'s 512-block cache and 0.25-s batching
    window."""
    # Per-drive profiler rollups should distinguish the shards.
    server = build_media_server(obs=obs, label=f"{node_id}.drive")
    return ClusterNode(node_id=node_id, server=server, capacity=capacity)
