"""The cluster router: placement-aware admission, chunked serving, handoff.

:class:`MediaCluster` is the cluster-level front door.  It speaks the
same :mod:`repro.api` types a single :class:`~repro.server.MediaServer`
does — clients submit :class:`~repro.api.OpenSessionRequest` with a
catalog *title* in ``rope_id`` and get a
:class:`~repro.api.ClusterServeResult` back — and adds the three
distributed concerns:

**Routing.**  Each open is admitted onto the least-loaded live replica
holding the title (ties break on the placement map's replica order).
When no replica has slack the refusal is the typed
:attr:`~repro.api.RejectReason.NO_REPLICA`; an unknown title is
:attr:`~repro.api.RejectReason.UNKNOWN_ROPE` — overload never surfaces
as an exception, exactly like the single-server contract.

**Chunked playback.**  A cluster session's interval is split into
``chunks`` equal sub-intervals; each chunk is one MediaServer epoch on
the session's current node.  Chunk boundaries are where a session may
change nodes, so finer chunking bounds how much playback a node death
can strand.

**Deterministic failure + handoff.**  The cluster reuses
:mod:`repro.faults` as its failure model: a
:class:`~repro.faults.FaultSpec` with ``HEAD_FAILURE`` and
``drive_index = node index`` kills that node at the chunk boundary
``at_op`` (or at the first boundary whose elapsed simulated time
reaches ``at_time``); TRANSIENT/MEDIA_DEFECT specs are forwarded to the
node's private drive injector at construction.  When a node dies, every
session it was serving is handed off to the least-loaded surviving
replica and resumes at its next chunk; a handoff is **clean** when the
viewer saw no miss or skip from then on.  Each decision is recorded as
a :class:`~repro.api.HandoffRecord`.

All decisions are pure functions of (requests, placement, fault plan),
so two runs with the same inputs produce byte-identical
``ClusterServeResult.to_dict()`` output — placement map, admission
order, and handoffs included.

One :class:`~repro.obs.Observability` observes the whole cluster: each
node is built against a node-scoped view of it (``obs.scoped(node_id)``,
the same registry, timeline and spans under a node id), and the router
reports every routing, serving and handoff decision to its
:class:`~repro.obs.recorder.ServiceRecorder` on the observer itself —
so totals, SLO evaluation and spans are those of one flat observer, and
what is per node is a node-labeled counter or a ``per_node`` row of the
profile.  The recorder's ``EVENTS`` table names the spans and the
per-title and node-labeled counters; :data:`CLUSTER_SLOS` adds the
``handoff-clean`` objective on top of the stock SLO set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import (
    ClusterServeResult,
    HandoffRecord,
    Media,
    NodeServeResult,
    OpenSessionRequest,
    OpenSessionResponse,
    RejectReason,
    ServeResult,
    SessionState,
    SessionStatus,
)
from repro.errors import ParameterError, check_count
from repro.faults import FaultInjector, FaultKind, FaultPlan
from repro.obs.recorder import recorder_for
from repro.obs.slo import CLUSTER_SLOS

from repro.cluster.node import ClusterNode, build_node
from repro.cluster.placement import (
    CatalogTitle,
    PlacementMap,
    PlacementPolicy,
    zipf_popularity,
)

__all__ = ["CLUSTER_SLOS", "MediaCluster", "build_cluster"]


@dataclass
class _ClusterSession:
    """Router-side state of one cluster session."""

    session_id: str
    client_id: str
    title_id: str
    media: Media
    arrival: float
    start: float
    length: float
    node_id: str = ""
    state: SessionState = SessionState.PLAYING
    handoffs: int = 0
    blocks_delivered: int = 0
    misses: int = 0
    skips: int = 0
    startup_latency: float = 0.0
    cache_admitted: bool = True
    #: Misses + skips accumulated at or after the first handoff chunk
    #: (what decides whether the handoffs were clean).
    glitches_after_handoff: int = 0
    reject: Optional[RejectReason] = None

    def status(self) -> SessionStatus:
        return SessionStatus(
            session_id=self.session_id,
            client_id=self.client_id,
            rope_id=self.title_id,
            state=self.state,
            blocks_delivered=self.blocks_delivered,
            misses=self.misses,
            skips=self.skips,
            startup_latency=self.startup_latency,
            cache_admitted=self.cache_admitted,
            node_id=self.node_id,
            handoffs=self.handoffs,
        )


@dataclass
class _PendingHandoff:
    """A handoff decision awaiting its final clean/broken verdict."""

    session_id: str
    title_id: str
    from_node: str
    to_node: Optional[str]
    at_chunk: int
    blocks_before: int
    detail: str


class MediaCluster:
    """N sharded MediaServers behind one typed cluster API."""

    def __init__(
        self,
        nodes: Sequence[ClusterNode],
        placement: PlacementMap,
        fault_plan: Optional[FaultPlan] = None,
        obs=None,
    ):
        if not nodes:
            raise ParameterError("a cluster needs at least one node")
        ids = [node.node_id for node in nodes]
        if len(set(ids)) != len(ids):
            raise ParameterError(f"duplicate node ids: {ids}")
        self.nodes: Tuple[ClusterNode, ...] = tuple(nodes)
        self._by_id: Dict[str, ClusterNode] = {
            node.node_id: node for node in nodes
        }
        for title, replicas in placement.assignments:
            for node_id in replicas:
                if node_id not in self._by_id:
                    raise ParameterError(
                        f"placement assigns {title!r} to unknown node "
                        f"{node_id!r}"
                    )
        self.placement = placement
        self.obs = obs
        #: What the router reports to (None when unobserved).
        self._rec = recorder_for(obs, "cluster")
        self._session_ids = itertools.count(1)
        self._sessions: Dict[str, _ClusterSession] = {}
        #: (chunk_boundary_index or None, at_time or None, node_index)
        #: — HEAD_FAILURE specs become node kills at chunk boundaries.
        self._kills: List[Tuple[Optional[int], Optional[float], int]] = []
        if fault_plan is not None:
            self._apply_fault_plan(fault_plan)

    # -- fault plan ---------------------------------------------------------------

    def _apply_fault_plan(self, plan: FaultPlan) -> None:
        """Interpret the plan cluster-wide: ``drive_index`` names a node.

        HEAD_FAILURE kills the whole node at a chunk boundary (``at_op``
        counts boundaries, not drive accesses, at cluster scope); other
        kinds are forwarded to that node's private drive injector, so
        per-block faults keep their single-drive semantics.
        """
        for spec in plan:
            if spec.drive_index >= len(self.nodes):
                raise ParameterError(
                    f"fault plan targets node index {spec.drive_index}, "
                    f"but the cluster has {len(self.nodes)} node(s)"
                )
        for index, node in enumerate(self.nodes):
            sub = plan.for_drive(index)
            drive_faults = [
                spec for spec in sub
                if spec.kind is not FaultKind.HEAD_FAILURE
            ]
            if drive_faults:
                node.server.mrs.msm.drive.attach_injector(
                    FaultInjector(FaultPlan(drive_faults, seed=plan.seed))
                )
            for spec in sub:
                if spec.kind is FaultKind.HEAD_FAILURE:
                    self._kills.append((spec.at_op, spec.at_time, index))

    # -- admission ----------------------------------------------------------------

    def route(self, title_id: str) -> Optional[ClusterNode]:
        """The least-loaded live replica with slack (None when none).

        Load is the node's active cluster-session count; ties break on
        the placement map's replica order, so routing is deterministic.
        """
        if not self.placement.has_title(title_id):
            return None
        best: Optional[ClusterNode] = None
        for node_id in self.placement.replicas(title_id):
            node = self._by_id[node_id]
            if not node.has_slack():
                continue
            if best is None or node.active < best.active:
                best = node
        return best

    def _reject(
        self,
        request: OpenSessionRequest,
        reason: RejectReason,
        detail: str,
    ) -> OpenSessionResponse:
        session = _ClusterSession(
            session_id=f"S{next(self._session_ids):04d}",
            client_id=request.client_id,
            title_id=request.rope_id,
            media=request.media,
            arrival=request.arrival,
            start=request.start,
            length=0.0,
            state=SessionState.REJECTED,
            cache_admitted=False,
            reject=reason,
        )
        self._sessions[session.session_id] = session
        if self._rec is not None:
            self._rec.router_rejected(
                session.session_id, request.arrival, request.rope_id,
                reason.value,
            )
        return OpenSessionResponse(
            session_id=session.session_id,
            accepted=False,
            reject=reason,
            detail=detail,
        )

    def _place(self, session: _ClusterSession, node: ClusterNode) -> None:
        """*session* plays on *node* from here on, counted in its load."""
        session.node_id = node.node_id
        node.active += 1

    def _leave(self, session: _ClusterSession) -> None:
        """*session* ended, was refused or lost its node: it leaves that
        node's load (but keeps the ``node_id`` it is reported under)."""
        self._by_id[session.node_id].active -= 1

    # -- serving ------------------------------------------------------------------

    def serve(
        self,
        requests: Sequence[OpenSessionRequest],
        chunks: int = 1,
    ) -> ClusterServeResult:
        """Route, serve in chunk epochs, hand off around node deaths."""
        check_count("chunks", chunks)
        for request in requests:
            if not isinstance(request, OpenSessionRequest):
                raise ParameterError(
                    f"cluster serve() got {type(request).__name__}; "
                    "the cluster API admits OpenSessionRequest only"
                )
        rejects: List[OpenSessionResponse] = []
        admission_order: List[Tuple[str, str]] = []
        admitted: List[_ClusterSession] = []
        ordered = sorted(
            range(len(requests)),
            key=lambda i: (requests[i].arrival, i),
        )
        for index in ordered:
            request = requests[index]
            title = request.rope_id
            if not self.placement.has_title(title):
                rejects.append(self._reject(
                    request, RejectReason.UNKNOWN_ROPE,
                    f"no catalog title {title!r}",
                ))
                continue
            node = self.route(title)
            if node is None:
                rejects.append(self._reject(
                    request, RejectReason.NO_REPLICA,
                    f"no live replica of {title!r} has admission slack "
                    f"(replicas: "
                    f"{', '.join(self.placement.replicas(title))})",
                ))
                continue
            duration = node.title_duration(title)
            length = (
                request.length if request.length is not None
                else max(duration - request.start, 0.0)
            )
            session = _ClusterSession(
                session_id=f"S{next(self._session_ids):04d}",
                client_id=request.client_id,
                title_id=title,
                media=request.media,
                arrival=request.arrival,
                start=request.start,
                length=length,
            )
            self._sessions[session.session_id] = session
            self._place(session, node)
            admitted.append(session)
            admission_order.append((session.session_id, node.node_id))
            if self._rec is not None:
                self._rec.routed(
                    session.session_id, request.arrival, title,
                    request.client_id, node.node_id,
                )
        per_node_results: Dict[str, List[ServeResult]] = {
            node.node_id: [] for node in self.nodes
        }
        pending_handoffs: List[_PendingHandoff] = []
        for chunk in range(chunks):
            self._serve_chunk(
                admitted, chunk, chunks, per_node_results, rejects
            )
            self._apply_kills(
                admitted, chunk, chunks, pending_handoffs, rejects
            )
        return self._finalize(
            admitted, rejects, admission_order,
            per_node_results, pending_handoffs, chunks,
        )

    def _chunk_interval(
        self, session: _ClusterSession, chunk: int, chunks: int
    ) -> Tuple[float, float]:
        """The (start, length) sub-interval of one chunk epoch."""
        chunk_length = session.length / chunks
        start = session.start + chunk * chunk_length
        if chunk == chunks - 1:
            # The last chunk absorbs float remainder so the union of
            # chunks is exactly the requested interval.
            length = session.start + session.length - start
        else:
            length = chunk_length
        return start, length

    def _serve_chunk(
        self,
        admitted: List[_ClusterSession],
        chunk: int,
        chunks: int,
        per_node_results: Dict[str, List[ServeResult]],
        rejects: List[OpenSessionResponse],
    ) -> None:
        """Run chunk epoch *chunk* on every node that has sessions."""
        for node in self.nodes:
            if not node.alive:
                continue
            mine = [
                session for session in admitted
                if session.node_id == node.node_id
                and session.state is SessionState.PLAYING
            ]
            if not mine:
                continue
            opens: List[OpenSessionRequest] = []
            for session in mine:
                start, length = self._chunk_interval(session, chunk, chunks)
                opens.append(
                    OpenSessionRequest(
                        client_id=session.client_id,
                        rope_id=node.rope_for(session.title_id),
                        arrival=session.arrival,
                        start=start,
                        length=length,
                        media=session.media,
                    )
                )
            result = node.serve(opens)
            per_node_results[node.node_id].append(result)
            self._merge_chunk(node, mine, result, chunk, chunks, rejects)

    def _merge_chunk(
        self,
        node: ClusterNode,
        mine: List[_ClusterSession],
        result: ServeResult,
        chunk: int,
        chunks: int,
        rejects: List[OpenSessionResponse],
    ) -> None:
        """Fold one node epoch's statuses back into cluster sessions.

        Statuses are matched by (client, rope) key: the node admits the
        epoch's opens in arrival order and assigns session ids in that
        order, and ``mine`` is in the same arrival order, so popping
        each key's statuses in session-id order pairs every cluster
        session with the node session its open created.
        """
        reject_reasons: Dict[str, RejectReason] = {
            response.session_id: response.reject
            for response in result.rejects
            if response.reject is not None
        }
        buckets: Dict[Tuple[str, str], List[SessionStatus]] = {}
        for status in result.statuses:
            key = (status.client_id, status.rope_id)
            buckets.setdefault(key, []).append(status)
        for statuses in buckets.values():
            statuses.sort(key=lambda s: s.session_id)
        for session in mine:
            key = (session.client_id, node.rope_for(session.title_id))
            bucket = buckets.get(key)
            if not bucket:
                raise ParameterError(
                    f"node {node.node_id} returned no status for "
                    f"cluster session {session.session_id} chunk {chunk}"
                )
            status = bucket.pop(0)
            if status.state is SessionState.REJECTED:
                reason = reject_reasons.get(
                    status.session_id, RejectReason.CAPACITY
                )
                session.state = SessionState.REJECTED
                session.reject = reason
                self._leave(session)
                rejects.append(
                    OpenSessionResponse(
                        session_id=session.session_id,
                        accepted=False,
                        reject=reason,
                        detail=(
                            f"node {node.node_id} refused chunk {chunk}"
                        ),
                    )
                )
                if self._rec is not None:
                    self._rec.node_rejected(
                        session.session_id, node.node_id,
                        session.arrival + session.length,
                    )
                continue
            session.blocks_delivered += status.blocks_delivered
            session.misses += status.misses
            session.skips += status.skips
            if chunk == 0:
                session.startup_latency = status.startup_latency
            session.cache_admitted = (
                session.cache_admitted and status.cache_admitted
            )
            if session.handoffs:
                session.glitches_after_handoff += (
                    status.misses + status.skips
                )
            if self._rec is not None:
                start, length = self._chunk_interval(session, chunk, chunks)
                self._rec.chunk_served(
                    session.session_id, node.node_id, chunk, start,
                    start + length, bool(status.misses or status.skips),
                )

    def _apply_kills(
        self,
        admitted: List[_ClusterSession],
        chunk: int,
        chunks: int,
        pending: List[_PendingHandoff],
        rejects: List[OpenSessionResponse],
    ) -> None:
        """Kill scheduled nodes at the boundary after epoch *chunk*.

        A HEAD_FAILURE spec fires at this boundary when its ``at_op``
        equals ``chunk + 1``, or when its ``at_time`` falls within the
        simulated playback the finished epochs cover.  A kill at or past
        the final boundary changes nothing — the sessions already
        finished.
        """
        boundary = chunk + 1
        if boundary >= chunks:
            return
        for at_op, at_time, index in self._kills:
            node = self.nodes[index]
            if not node.alive:
                continue
            fires = False
            if at_op is not None:
                fires = at_op == boundary
            elif at_time is not None:
                # Elapsed simulated playback is boundary/chunks of the
                # longest live interval; the kill fires at the first
                # boundary whose elapsed time reaches at_time.
                horizon = max(
                    (s.length for s in admitted
                     if s.state is SessionState.PLAYING),
                    default=0.0,
                )
                fires = horizon * boundary / chunks >= at_time
            if not fires:
                continue
            self._kill_node(
                node, boundary, chunks, admitted, pending, rejects
            )

    def _kill_node(
        self,
        node: ClusterNode,
        boundary: int,
        chunks: int,
        admitted: List[_ClusterSession],
        pending: List[_PendingHandoff],
        rejects: List[OpenSessionResponse],
    ) -> None:
        """Kill *node* and hand its live sessions to surviving replicas."""
        node.kill()
        rec = self._rec
        if rec is not None:
            rec.node_died(node.node_id)
        affected = [
            session for session in admitted
            if session.node_id == node.node_id
            and session.state is SessionState.PLAYING
        ]
        for session in affected:
            self._leave(session)
            target = self.route(session.title_id)
            to_node = target.node_id if target is not None else None
            if target is not None:
                self._place(session, target)
                session.handoffs += 1
                detail = f"resumed at chunk {boundary} on {to_node}"
            else:
                detail = (
                    f"no surviving replica of {session.title_id!r} "
                    f"had slack at chunk {boundary}"
                )
                session.state = SessionState.REJECTED
                session.reject = RejectReason.NO_REPLICA
                rejects.append(
                    OpenSessionResponse(
                        session_id=session.session_id,
                        accepted=False,
                        reject=RejectReason.NO_REPLICA,
                        detail=detail,
                    )
                )
            pending.append(_PendingHandoff(
                session_id=session.session_id,
                title_id=session.title_id,
                from_node=node.node_id,
                to_node=to_node,
                at_chunk=boundary,
                blocks_before=session.blocks_delivered,
                detail=detail,
            ))
            if rec is not None:
                at_time, _ = self._chunk_interval(session, boundary, chunks)
                rec.handed_off(
                    session.session_id, at_time, boundary, node.node_id,
                    to_node, session.arrival + session.length,
                    None if target is not None else session.reject.value,
                )

    # -- result assembly ----------------------------------------------------------

    def _finalize(
        self,
        admitted: List[_ClusterSession],
        rejects: List[OpenSessionResponse],
        admission_order: List[Tuple[str, str]],
        per_node_results: Dict[str, List[ServeResult]],
        pending: List[_PendingHandoff],
        chunks: int,
    ) -> ClusterServeResult:
        for session in admitted:
            if session.state is SessionState.PLAYING:
                session.state = SessionState.COMPLETED
                self._leave(session)
                if self._rec is not None:
                    self._rec.session_closed(
                        session.session_id, session.arrival + session.length,
                        "degraded" if session.misses or session.skips
                        else "ok",
                    )
        by_session = {
            session.session_id: session for session in admitted
        }
        handoffs: List[HandoffRecord] = []
        for entry in pending:
            session = by_session[entry.session_id]
            clean = (
                entry.to_node is not None
                and session.state is SessionState.COMPLETED
                and session.glitches_after_handoff == 0
            )
            handoffs.append(HandoffRecord(
                session_id=entry.session_id,
                rope_id=entry.title_id,
                from_node=entry.from_node,
                to_node=entry.to_node,
                at_chunk=entry.at_chunk,
                blocks_before=entry.blocks_before,
                clean=clean,
                detail=entry.detail,
            ))
        if self._rec is not None:
            self._rec.handoffs_scored(
                [record.to_node for record in handoffs if record.clean],
                max((s.arrival + s.length for s in admitted), default=0.0),
            )
        statuses = tuple(
            self._sessions[sid].status()
            for sid in sorted(self._sessions)
        )
        return ClusterServeResult(
            statuses=statuses,
            rejects=tuple(rejects),
            per_node=tuple(
                NodeServeResult(
                    node_id=node.node_id,
                    results=tuple(per_node_results[node.node_id]),
                )
                for node in self.nodes
            ),
            nodes=tuple(node.status() for node in self.nodes),
            handoffs=tuple(handoffs),
            placement=self.placement.assignments,
            admission_order=tuple(admission_order),
            chunks=chunks,
        )


def build_cluster(
    nodes: int,
    titles: int,
    seconds: float = 1.0,
    per_node_streams: int = 8,
    min_replicas: int = 2,
    clients: Optional[List[str]] = None,
    obs=None,
    warm: bool = True,
    fault_plan: Optional[FaultPlan] = None,
) -> Tuple[MediaCluster, Tuple[CatalogTitle, ...]]:
    """A cluster of *nodes* MediaServers sharing a Zipf catalog.

    Titles are ``T01..Tnn`` with classic Zipf(1) popularity; the
    placement policy mirrors each title onto at least *min_replicas*
    nodes (so every title has a failover target) and stripes replicas
    least-loaded-first.  Every node records its assigned replicas from
    the title's own deterministic frame source and, when *warm* is on,
    plays each once so the hot waves are cache-admitted.

    Each node is built against ``obs.scoped(node_id)``, so its drive and
    cache are that node's rows in the profile; the router reports to
    *obs* itself.
    """
    check_count("nodes", nodes)
    check_count("titles", titles)
    check_count("min_replicas", min_replicas)
    catalog = tuple(
        CatalogTitle(
            title_id=f"T{rank:02d}",
            seconds=seconds,
            popularity=zipf_popularity(rank),
        )
        for rank in range(1, titles + 1)
    )
    node_ids = [f"node-{i:02d}" for i in range(nodes)]
    placement = PlacementPolicy(min_replicas=min_replicas).plan(
        catalog, node_ids, per_node_streams
    )
    viewers = list(clients or []) + ["warmer"]
    built = []
    for node_id in node_ids:
        node = build_node(
            node_id,
            capacity=per_node_streams,
            obs=obs.scoped(node_id) if obs is not None else None,
        )
        for title in catalog:
            if node_id in placement.replicas(title.title_id):
                node.record_title(title, viewers)
        built.append(node)
    if warm:
        for node in built:
            for title_id in sorted(node.local_ropes):
                node.warm(title_id)
    cluster = MediaCluster(built, placement, fault_plan=fault_plan, obs=obs)
    return cluster, catalog
