"""The cluster router: placement-aware admission, node runs, handoff.

:class:`MediaCluster` is the cluster-level front door.  It speaks the
same :mod:`repro.api` types a single :class:`~repro.server.MediaServer`
does — clients submit :class:`~repro.api.OpenSessionRequest` with a
catalog *title* in ``rope_id`` and get a
:class:`~repro.api.ClusterServeResult` back — and adds the three
distributed concerns:

**Routing.**  Each open is admitted at its arrival onto the least-loaded
live replica holding the title, a node's load being its own live set
(ties break on the placement map's replica order).  When no replica has
slack the refusal is the typed :attr:`~repro.api.RejectReason.NO_REPLICA`;
an unknown title is :attr:`~repro.api.RejectReason.UNKNOWN_ROPE` —
overload never surfaces as an exception, as on one server.

**One run per node.**  A ``serve`` keeps one run of each live node's
server for the whole call and takes its events — each open's arrival
and each node kill — in time order, on the requests' own clock.  A
node's run is brought to an event only once one of its sessions could
have played out by then, the rule one server applies to its opens; the
opens routed to a node wait for that (or a kill, or the end of the
call), then are batched and submitted at their own times.  A session is
served by one replica at a time and moves only when it must (Viennot et
al., *Scalable Distributed Video-on-Demand*).

**Deterministic failure + handoff.**  The failure model is
:mod:`repro.faults`': a ``HEAD_FAILURE`` :class:`~repro.faults.FaultSpec`
with ``drive_index = node index`` kills that node at ``at_time``, or at
``at_op / chunks`` of the longest interval requested (the form the
benchmark and the ``cluster-scale`` scenario use); other kinds go to the
node's own drive injector.  The kill stops the node's run at its time,
and each session it was still sending re-opens there on the least-loaded
surviving replica, from the first block it was not sent, as that node's
admission decides.  A handoff is **clean** when the viewer saw no miss
or skip from then on; each is a :class:`~repro.api.HandoffRecord`.

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
from dataclasses import dataclass, field, replace
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
from repro.server.media_server import _Remainder

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
    #: When it began on ``node_id``: its arrival, or its last handoff.
    since: float = 0.0
    state: SessionState = SessionState.PLAYING
    handoffs: int = 0
    blocks_delivered: int = 0
    misses: int = 0
    skips: int = 0
    startup_latency: float = 0.0
    cache_admitted: bool = True
    #: Misses + skips on the nodes it was handed off to (what decides
    #: whether the handoffs were clean).
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
class _Call:
    """One ``serve`` call's answers as they accrue."""

    rejects: List[OpenSessionResponse] = field(default_factory=list)
    admission_order: List[Tuple[str, str]] = field(default_factory=list)
    handoffs: List[HandoffRecord] = field(default_factory=list)
    #: Each node's run's result, by node id.
    results: Dict[str, Tuple[ServeResult, ...]] = field(default_factory=dict)


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
        #: (at_op or None, at_time or None, node_index) of each
        #: HEAD_FAILURE spec: a node kill.
        self._kills: List[Tuple[Optional[int], Optional[float], int]] = []
        if fault_plan is not None:
            self._apply_fault_plan(fault_plan)

    # -- fault plan ---------------------------------------------------------------

    def _apply_fault_plan(self, plan: FaultPlan) -> None:
        """Interpret the plan cluster-wide: ``drive_index`` names a node.

        HEAD_FAILURE kills the whole node at a time of the ``serve``
        (``at_op`` counts ``chunks`` of its longest interval, not drive
        accesses); other kinds go to that node's private drive injector,
        so per-block faults keep their single-drive semantics.
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

        Load is the node's own live set as it stands (``serve`` brings
        each replica's run to an open's arrival first); ties break on the
        placement map's replica order, so routing is deterministic.
        """
        if not self.placement.has_title(title_id):
            return None
        nodes = [self._by_id[n] for n in self.placement.replicas(title_id)]
        loads = [(n._live(), i) for i, n in enumerate(nodes) if n.has_slack()]
        return nodes[min(loads)[1]] if loads else None

    def _reject(self, call, request, reason: RejectReason, detail) -> None:
        """The router refuses *request*, for *reason*: no node sees it."""
        session = self._session(request, 0.0, cache_admitted=False)
        self._refuse(call, session, reason, detail)
        if self._rec is not None:
            self._rec.router_rejected(
                session.session_id, request.arrival, request.rope_id,
                reason.value,
            )

    @staticmethod
    def _refuse(call: _Call, session: _ClusterSession, reason, detail) -> None:
        """*session* ends refused, for *reason*."""
        session.state, session.reject = SessionState.REJECTED, reason
        call.rejects.append(OpenSessionResponse(
            session_id=session.session_id, accepted=False, reject=reason,
            detail=detail,
        ))

    def _session(self, request, length, **state) -> _ClusterSession:
        """A new cluster session of *request*, over *length* seconds."""
        session = _ClusterSession(
            session_id=f"S{next(self._session_ids):04d}",
            client_id=request.client_id, title_id=request.rope_id,
            media=request.media, arrival=request.arrival,
            start=request.start, length=length, **state,
        )
        self._sessions[session.session_id] = session
        return session

    def _length(self, request: OpenSessionRequest) -> float:
        """The length of the interval an open of a catalog title asks for."""
        if request.length is not None:
            return request.length
        node = self._by_id[self.placement.replicas(request.rope_id)[0]]
        return max(node.title_duration(request.rope_id) - request.start, 0.0)

    def _catch_up(self, title_id: str, at: float) -> None:
        """Bring each live replica of *title_id* to *at*, where a session
        of its may have played out (:meth:`ClusterNode._catch_up`)."""
        for node_id in self.placement.replicas(title_id):
            node = self._by_id[node_id]
            if node.alive:
                node._catch_up(at)

    # -- serving ------------------------------------------------------------------

    def serve(
        self,
        requests: Sequence[OpenSessionRequest],
        chunks: int = 1,
    ) -> ClusterServeResult:
        """Route each open at its arrival onto one run per live node, and
        hand sessions off around node kills, in time order (a kill before
        an open at its time).  *chunks* only places an ``at_op`` kill."""
        check_count("chunks", chunks)
        for request in requests:
            if not isinstance(request, OpenSessionRequest):
                raise ParameterError(
                    f"cluster serve() got {type(request).__name__}; "
                    "the cluster API admits OpenSessionRequest only"
                )
        horizon = max((
            self._length(request) for request in requests
            if self.placement.has_title(request.rope_id)
        ), default=0.0)
        events = [
            (at_time if at_op is None else at_op / chunks * horizon, -1, index)
            for at_op, at_time, index in self._kills
        ] + [(request.arrival, i, -1) for i, request in enumerate(requests)]
        call = _Call()
        for node in self.nodes:
            if node.alive:
                node._start()
        for at, order, index in sorted(events):
            if order >= 0:
                self._open(requests[order], call)
            elif self.nodes[index].alive:
                self._kill(self.nodes[index], at, call)
        for node in self.nodes:
            if node.alive:
                self._fold(node, call)
        return self._finalize(call)

    def _open(self, request: OpenSessionRequest, call: _Call) -> None:
        """Decide one open at its arrival: routed to a replica, where it
        waits to be submitted to the node's run, or refused."""
        title = request.rope_id
        if not self.placement.has_title(title):
            self._reject(
                call, request, RejectReason.UNKNOWN_ROPE,
                f"no catalog title {title!r}",
            )
            return
        self._catch_up(title, request.arrival)
        node = self.route(title)
        if node is None:
            self._reject(
                call, request, RejectReason.NO_REPLICA,
                f"no live replica of {title!r} has admission slack "
                f"(replicas: {', '.join(self.placement.replicas(title))})",
            )
            return
        session = self._session(
            request, self._length(request), node_id=node.node_id,
            since=request.arrival,
        )
        call.admission_order.append((session.session_id, node.node_id))
        if self._rec is not None:
            self._rec.routed(
                session.session_id, request.arrival, title,
                request.client_id, node.node_id,
            )
        node._pending.append((OpenSessionRequest(
            client_id=session.client_id, rope_id=node.rope_for(title),
            arrival=session.arrival, start=session.start,
            length=session.length, media=session.media,
        ), session))

    def _kill(self, node: ClusterNode, at: float, call: _Call) -> None:
        """*node* dies at *at*: its run stops there, and each session it
        was still sending re-opens there on the least-loaded surviving
        replica, from the first block it was not sent."""
        cut = node._halt(at)
        self._fold(node, call, at)
        node.kill()
        rec = self._rec
        if rec is not None:
            rec.node_died(node.node_id)
        for session, block in cut:
            title = session.title_id
            self._catch_up(title, at)
            target = self.route(title)
            to_node = target.node_id if target is not None else None
            if target is not None:
                session.node_id, session.since = to_node, at
                session.handoffs += 1
                target._submit((_Remainder(
                    client_id=session.client_id, rope_id=target.rope_for(title),
                    arrival=at, start=session.start, length=session.length,
                    media=session.media, first_block=block,
                ), session))
                detail = f"resumed at block {block} on {to_node}"
            else:
                detail = (
                    f"no surviving replica of {title!r} had slack at "
                    f"{at:.3f} s"
                )
                self._refuse(call, session, RejectReason.NO_REPLICA, detail)
            # Clean or not is decided once the call has played out.
            call.handoffs.append(HandoffRecord(
                session_id=session.session_id, rope_id=title,
                from_node=node.node_id, to_node=to_node, at_time=at,
                blocks_before=session.blocks_delivered, detail=detail,
            ))
            if rec is not None:
                rec.handed_off(
                    session.session_id, at, node.node_id, to_node,
                    session.arrival + session.length,
                    None if target is not None else session.reject.value,
                )

    def _fold(
        self, node: ClusterNode, call: _Call, at: Optional[float] = None
    ) -> None:
        """End *node*'s run — at *at*, a kill's time, or at the end of the
        call — and fold each of its statuses into the cluster session it
        played: one stint of that session."""
        result, plays = node._finish()
        if result is None:
            return
        call.results[node.node_id] = (result,)
        reasons = {
            response.session_id: response.reject
            for response in result.rejects
            if response.reject is not None
        }
        for status in result.statuses:
            session = plays[status.session_id]
            if status.state is SessionState.REJECTED:
                self._refuse(
                    call, session,
                    reasons.get(status.session_id, RejectReason.CAPACITY),
                    f"node {node.node_id} refused it",
                )
                if self._rec is not None:
                    self._rec.node_rejected(
                        session.session_id, node.node_id,
                        session.arrival + session.length,
                    )
                continue
            glitches = status.misses + status.skips
            if session.handoffs:
                session.glitches_after_handoff += glitches
            else:
                session.startup_latency = status.startup_latency
            session.blocks_delivered += status.blocks_delivered
            session.misses += status.misses
            session.skips += status.skips
            session.cache_admitted = (
                session.cache_admitted and status.cache_admitted
            )
            if self._rec is not None:
                self._rec.stint_served(
                    session.session_id, node.node_id, session.since,
                    at if status.state is SessionState.STOPPED
                    else session.arrival + session.length,
                    bool(glitches),
                )

    # -- result assembly ----------------------------------------------------------

    def _finalize(self, call: _Call) -> ClusterServeResult:
        admitted = [self._sessions[sid] for sid, _ in call.admission_order]
        for session in admitted:
            if session.state is SessionState.PLAYING:
                session.state = SessionState.COMPLETED
                if self._rec is not None:
                    self._rec.session_closed(
                        session.session_id, session.arrival + session.length,
                        "degraded" if session.misses or session.skips
                        else "ok",
                    )
        handoffs = [
            replace(record, clean=(
                record.to_node is not None
                and session.state is SessionState.COMPLETED
                and session.glitches_after_handoff == 0
            ))
            for record in call.handoffs
            for session in [self._sessions[record.session_id]]
        ]
        if self._rec is not None:
            self._rec.handoffs_scored(
                [record.to_node for record in handoffs if record.clean],
                max((s.arrival + s.length for s in admitted), default=0.0),
            )
        return ClusterServeResult(
            statuses=tuple(
                self._sessions[sid].status() for sid in sorted(self._sessions)
            ),
            rejects=tuple(call.rejects),
            per_node=tuple(
                NodeServeResult(node.node_id, call.results.get(node.node_id, ()))
                for node in self.nodes
            ),
            nodes=tuple(node.status() for node in self.nodes),
            handoffs=tuple(handoffs),
            placement=self.placement.assignments,
            admission_order=tuple(call.admission_order),
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
    reads each one's playback plan through its cache
    (:meth:`ClusterNode.warm`), so the hot waves are cache-admitted.

    Each node is built against ``obs.scoped(node_id)``, so its drive and
    cache are that node's rows in the profile; the router reports to
    *obs* itself.  Warming is set-up, not traffic: its reads are in the
    drive and cache counters, but it opens no session, span or RPC call.
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
