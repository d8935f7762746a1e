"""The public request/response surface of the media server.

Everything a client says to the reproduction's file server — and
everything the server says back — is one of the typed messages in this
module.  The scattered entry points the repo grew up with
(``MultimediaStorageManager`` + ``MultimediaRopeServer`` +
``PlaybackSession`` hand-wired per caller) remain available for library
use, but the supported public surface is:

* :class:`OpenSessionRequest` / :class:`OpenSessionResponse` — ask for a
  playback session over a rope interval; the response carries either a
  session ID or a typed :class:`RejectReason` (never a bare exception
  for overload);
* :class:`PlayRequest`, :class:`PauseRequest`, :class:`ResumeRequest`,
  :class:`StopRequest` — the §4.1 lifecycle verbs, addressed by session;
* :class:`SessionStatus` — one session's lifecycle state and continuity
  outcome (cluster deployments also stamp the serving node and handoff
  count);
* :class:`ServeResult` — the outcome of one served request queue.

The same surface covers cluster deployments
(:class:`repro.cluster.MediaCluster`) through the cluster-addressed
messages:

* :class:`NodeStatus` — identity and health of one cluster node;
* :class:`HandoffRecord` — one inter-node session handoff decision;
* :class:`NodeServeResult` — one node's per-chunk :class:`ServeResult`
  sequence;
* :class:`ClusterServeResult` — the cluster-level aggregate: statuses,
  typed rejects, the placement map, the admission order, and every
  handoff, all byte-deterministic under a fixed seed.

:class:`repro.server.MediaServer` consumes and produces these types;
:class:`repro.service.session.PlaybackSession` accepts
:class:`PlayRequest` wherever it accepts raw request IDs; and
:func:`repro.service.rpc.stub_for` estimates marshalled sizes for all of
them (they are plain dataclasses).  ``repro.__init__`` re-exports this
module as the package facade.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.rope.structures import Media

__all__ = [
    "Media",
    "SessionState",
    "RejectReason",
    "OpenSessionRequest",
    "OpenSessionResponse",
    "PlayRequest",
    "PauseRequest",
    "ResumeRequest",
    "StopRequest",
    "SessionStatus",
    "ServeResult",
    "NodeStatus",
    "HandoffRecord",
    "NodeServeResult",
    "ClusterServeResult",
]


class SessionState(enum.Enum):
    """Lifecycle of one client session at the media-server front end."""

    PENDING = "pending"        # queued, admission not yet decided
    OPEN = "open"              # admitted, playback not requested yet
    PLAYING = "playing"        # scheduled into the service loop
    PAUSED = "paused"          # PAUSE'd before/while being serviced
    STOPPED = "stopped"        # STOP'd by the client
    COMPLETED = "completed"    # played to the end of its interval
    REJECTED = "rejected"      # refused with a RejectReason


class RejectReason(enum.Enum):
    """Why the server refused a session (graceful overload, §3.4).

    Every refusal is a typed value on the response — overload never
    surfaces to the client as an exception.
    """

    CAPACITY = "capacity"            # γ ≤ n·β: no admission headroom
    K_BOUND = "k_bound"              # Eq.-18 k beyond the operating bound
    QUEUE_FULL = "queue_full"        # re-queue budget exhausted
    UNKNOWN_ROPE = "unknown_rope"    # no such rope
    ACCESS_DENIED = "access_denied"  # caller lacks Play access
    EMPTY_INTERVAL = "empty_interval"  # requested interval has no media
    NO_REPLICA = "no_replica"        # cluster: no live replica has slack


@dataclass(frozen=True)
class OpenSessionRequest:
    """Ask for a playback session over a rope interval.

    Attributes
    ----------
    client_id:
        The requesting user (checked against the rope's Play access).
    rope_id:
        The rope to play.
    arrival:
        Simulated arrival time, seconds.  Requests arriving within the
        server's batching window for the same ``(rope_id, start,
        length, media)`` key are admitted as one batch with shared
        reads.
    start / length:
        Interval within the rope, seconds (``length=None`` plays to the
        end).
    media:
        Which media components to deliver.
    auto_play:
        When True (the default) an admitted session is scheduled for
        playback immediately; when False the client must follow up with
        a :class:`PlayRequest`.
    """

    client_id: str
    rope_id: str
    arrival: float = 0.0
    start: float = 0.0
    length: Optional[float] = None
    media: Media = Media.VIDEO
    auto_play: bool = True


@dataclass(frozen=True)
class OpenSessionResponse:
    """The server's answer to one :class:`OpenSessionRequest`.

    Attributes
    ----------
    session_id:
        Assigned session ID, or None when rejected.
    accepted:
        Whether the session was admitted.
    reject:
        The typed refusal reason (None when accepted).
    batch_leader:
        For a batched admission, the session whose disk reads this
        session shares (the leader's own response points at itself).
    cache_admitted:
        True when the session was admitted against cache residency
        (its blocks are pinned in the block cache and consume no
        disk-round budget).
    requeues:
        How many times the request was re-queued before this verdict.
    detail:
        Human-readable context for logs.
    """

    session_id: Optional[str]
    accepted: bool
    reject: Optional[RejectReason] = None
    batch_leader: Optional[str] = None
    cache_admitted: bool = False
    requeues: int = 0
    detail: str = ""


@dataclass(frozen=True)
class PlayRequest:
    """Schedule an OPEN session into the service loop."""

    session_id: str
    arrival: float = 0.0


@dataclass(frozen=True)
class PauseRequest:
    """PAUSE a session; destructive pauses release its resources."""

    session_id: str
    arrival: float = 0.0
    destructive: bool = False


@dataclass(frozen=True)
class ResumeRequest:
    """RESUME a paused session (destructive pauses re-run admission)."""

    session_id: str
    arrival: float = 0.0


@dataclass(frozen=True)
class StopRequest:
    """STOP a session and release its resources."""

    session_id: str
    arrival: float = 0.0


@dataclass(frozen=True)
class SessionStatus:
    """One session's lifecycle state and continuity outcome.

    ``node_id`` and ``handoffs`` are the cluster-addressing fields: a
    single :class:`~repro.server.MediaServer` leaves them at their
    defaults, while :class:`repro.cluster.MediaCluster` stamps the node
    that finished serving the session and how many inter-node handoffs
    it survived.
    """

    session_id: str
    client_id: str
    rope_id: str
    state: SessionState
    blocks_delivered: int = 0
    misses: int = 0
    skips: int = 0
    startup_latency: float = 0.0
    batch_leader: Optional[str] = None
    cache_admitted: bool = False
    request_id: Optional[str] = None
    node_id: Optional[str] = None
    handoffs: int = 0

    @property
    def continuous(self) -> bool:
        """True when the session played without a single glitch."""
        return self.misses == 0

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready mapping (stable key set)."""
        return {
            "session_id": self.session_id,
            "client_id": self.client_id,
            "rope_id": self.rope_id,
            "request_id": self.request_id,
            "state": self.state.value,
            "blocks_delivered": self.blocks_delivered,
            "misses": self.misses,
            "skips": self.skips,
            "startup_latency": self.startup_latency,
            "batch_leader": self.batch_leader,
            "cache_admitted": self.cache_admitted,
            "continuous": self.continuous,
            "node_id": self.node_id,
            "handoffs": self.handoffs,
        }


@dataclass(frozen=True)
class ServeResult:
    """The outcome of one :meth:`repro.server.MediaServer.serve` call.

    Attributes
    ----------
    statuses:
        Final status of every session touched this epoch, in session-ID
        order.
    rejects:
        Responses for requests that ended rejected, in arrival order.
    rounds:
        Service rounds the epoch ran.
    k_used:
        Blocks-per-round the service loop operated at.
    batches:
        Admission batches formed (a solo request is a batch of one).
    cache_stats:
        Block-cache counters for the epoch (empty when the cache is
        disabled).
    block_sequences:
        Per-session ordered disk-slot sequences actually fetched
        (silence holders are None).  The cache-equivalence property
        tests assert these are byte-identical with the cache on or off.
    """

    statuses: Tuple[SessionStatus, ...]
    rejects: Tuple[OpenSessionResponse, ...] = ()
    rounds: int = 0
    k_used: int = 0
    batches: int = 0
    cache_stats: Dict[str, int] = field(default_factory=dict)
    block_sequences: Dict[str, Tuple[Optional[int], ...]] = field(
        default_factory=dict
    )

    @property
    def admitted(self) -> int:
        """Sessions that made it past admission."""
        return sum(
            1 for s in self.statuses if s.state is not SessionState.REJECTED
        )

    @property
    def continuous_sessions(self) -> int:
        """Sessions that completed playback without a glitch."""
        return sum(
            1
            for s in self.statuses
            if s.state is SessionState.COMPLETED and s.continuous
        )

    @property
    def total_misses(self) -> int:
        """Deadline misses summed over every session."""
        return sum(s.misses for s in self.statuses)

    def status_of(self, session_id: str) -> SessionStatus:
        """Look up one session's status (raises KeyError if absent)."""
        for status in self.statuses:
            if status.session_id == session_id:
                return status
        raise KeyError(session_id)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready mapping (``result`` in ``repro run --json``)."""
        return {
            "sessions": [s.to_dict() for s in self.statuses],
            "rejects": [
                {
                    "session_id": r.session_id,
                    "reject": r.reject.value if r.reject else None,
                    "requeues": r.requeues,
                    "detail": r.detail,
                }
                for r in self.rejects
            ],
            "rounds": self.rounds,
            "k_used": self.k_used,
            "batches": self.batches,
            "admitted": self.admitted,
            "continuous_sessions": self.continuous_sessions,
            "total_misses": self.total_misses,
            "cache_stats": dict(sorted(self.cache_stats.items())),
        }


@dataclass(frozen=True)
class NodeStatus:
    """Identity and health of one cluster node (replica addressing).

    Attributes
    ----------
    node_id:
        The node's stable cluster-wide name (e.g. ``node-03``).
    alive:
        False once the node's mechanism has died (a scheduled
        HEAD_FAILURE or an operator kill); dead nodes accept nothing.
    degraded:
        True while the node is drained of new admissions but still
        finishing its current chunks.
    sessions:
        Sessions the node was serving when the status was taken.
    titles:
        Catalog titles the placement map replicated onto this node.
    """

    node_id: str
    alive: bool = True
    degraded: bool = False
    sessions: int = 0
    titles: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready mapping (stable key set)."""
        return {
            "node_id": self.node_id,
            "alive": self.alive,
            "degraded": self.degraded,
            "sessions": self.sessions,
            "titles": list(self.titles),
        }


@dataclass(frozen=True)
class HandoffRecord:
    """One inter-node session handoff decision.

    Attributes
    ----------
    session_id:
        The cluster session that was moved.
    rope_id:
        The catalog title it was playing.
    from_node / to_node:
        Where it was and where it landed; ``to_node`` is None when no
        live replica had admission slack (the session then ends with a
        :attr:`RejectReason.NO_REPLICA` refusal).
    at_chunk:
        The chunk boundary index the handoff happened at.
    blocks_before:
        Blocks already delivered when the source node died.
    clean:
        True when the session resumed on the target and finished every
        remaining chunk without a single miss or skip — no continuity
        break observable by the viewer.
    detail:
        Human-readable context for logs.
    """

    session_id: str
    rope_id: str
    from_node: str
    to_node: Optional[str]
    at_chunk: int
    blocks_before: int = 0
    clean: bool = False
    detail: str = ""

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready mapping (stable key set)."""
        return {
            "session_id": self.session_id,
            "rope_id": self.rope_id,
            "from_node": self.from_node,
            "to_node": self.to_node,
            "at_chunk": self.at_chunk,
            "blocks_before": self.blocks_before,
            "clean": self.clean,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class NodeServeResult:
    """One node's contribution to a cluster epoch: its chunk results."""

    node_id: str
    results: Tuple[ServeResult, ...] = ()

    @property
    def blocks_delivered(self) -> int:
        """Blocks this node delivered across every chunk epoch."""
        return sum(
            s.blocks_delivered for r in self.results for s in r.statuses
        )

    @property
    def rounds(self) -> int:
        """Service rounds this node ran across every chunk epoch."""
        return sum(r.rounds for r in self.results)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready mapping (stable key set)."""
        return {
            "node_id": self.node_id,
            "blocks_delivered": self.blocks_delivered,
            "rounds": self.rounds,
            "results": [r.to_dict() for r in self.results],
        }


@dataclass(frozen=True)
class ClusterServeResult:
    """The outcome of one :meth:`repro.cluster.MediaCluster.serve` call.

    Aggregates the per-node :class:`ServeResult` epochs behind one
    cluster-level answer in the same shape :class:`ServeResult` uses,
    plus the routing evidence: the placement map the router consulted,
    the exact admission order, and every handoff decision.  All of it is
    a pure function of (requests, placement, fault plan, seed), so
    ``to_dict()`` is byte-deterministic — the router-determinism tests
    compare two runs' serialized results verbatim.
    """

    statuses: Tuple[SessionStatus, ...]
    rejects: Tuple[OpenSessionResponse, ...] = ()
    per_node: Tuple[NodeServeResult, ...] = ()
    nodes: Tuple[NodeStatus, ...] = ()
    handoffs: Tuple[HandoffRecord, ...] = ()
    placement: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()
    admission_order: Tuple[Tuple[str, str], ...] = ()
    chunks: int = 1

    @property
    def admitted(self) -> int:
        """Sessions the router admitted onto some replica."""
        return sum(
            1 for s in self.statuses if s.state is not SessionState.REJECTED
        )

    @property
    def continuous_sessions(self) -> int:
        """Sessions that completed every chunk without a glitch."""
        return sum(
            1
            for s in self.statuses
            if s.state is SessionState.COMPLETED
            and s.continuous
            and s.skips == 0
        )

    @property
    def total_misses(self) -> int:
        """Deadline misses summed over every session and chunk."""
        return sum(s.misses for s in self.statuses)

    @property
    def handoffs_clean(self) -> int:
        """Handoffs that resumed without a continuity break."""
        return sum(1 for h in self.handoffs if h.clean)

    @property
    def handoff_clean_ratio(self) -> Optional[float]:
        """Clean fraction of all handoffs (None when there were none)."""
        if not self.handoffs:
            return None
        return self.handoffs_clean / len(self.handoffs)

    def status_of(self, session_id: str) -> SessionStatus:
        """Look up one session's status (raises KeyError if absent)."""
        for status in self.statuses:
            if status.session_id == session_id:
                return status
        raise KeyError(session_id)

    def node_result(self, node_id: str) -> NodeServeResult:
        """One node's chunk results (raises KeyError if absent)."""
        for node in self.per_node:
            if node.node_id == node_id:
                return node
        raise KeyError(node_id)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready mapping (``result`` in ``repro run --json``)."""
        return {
            "sessions": [s.to_dict() for s in self.statuses],
            "rejects": [
                {
                    "session_id": r.session_id,
                    "reject": r.reject.value if r.reject else None,
                    "requeues": r.requeues,
                    "detail": r.detail,
                }
                for r in self.rejects
            ],
            "per_node": [n.to_dict() for n in self.per_node],
            "nodes": [n.to_dict() for n in self.nodes],
            "handoffs": [h.to_dict() for h in self.handoffs],
            "placement": {
                title: list(replicas)
                for title, replicas in self.placement
            },
            "admission_order": [
                [session_id, node_id]
                for session_id, node_id in self.admission_order
            ],
            "chunks": self.chunks,
            "admitted": self.admitted,
            "continuous_sessions": self.continuous_sessions,
            "total_misses": self.total_misses,
            "handoffs_clean": self.handoffs_clean,
        }
