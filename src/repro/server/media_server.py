"""The MediaServer: the file system's front door.

Everything below this module already existed — the storage manager, the
rope server, the admission controller, the round-robin service — but
callers had to hand-wire them.  :class:`MediaServer` owns the whole
stack and serves typed :mod:`repro.api` requests end to end:

* a simulated-time request queue with the §4.1 session lifecycle
  (open → play / pause / resume → stop) and arrival patterns supplied
  by the caller;
* **batched admission**: near-simultaneous opens of the same rope
  interval are grouped (:mod:`repro.server.batching`); only the batch
  leader is admitted against the §3.4 inequality and reads the disk,
  while followers ride the block cache — so fifty viewers of five hot
  strands cost five admission slots, not fifty (the batch's one lease
  is held until its last live member leaves);
* a bounded LRU **block cache** (:mod:`repro.disk.cache`) between the
  service loop and the drive, with cache-aware admission: a session
  whose entire plan is resident is admitted without consuming any
  disk-round budget, its blocks pinned until it completes;
* **graceful overload**: refusals come back as typed
  :class:`~repro.api.RejectReason` values on the response, with an
  optional bounded re-queue, never as exceptions.

Every admission call the server makes crosses the MRS↔MSM boundary
through an :class:`~repro.service.rpc.RpcChannel`, so batch admissions
are logged with marshalled sizes exactly like the prototype's RPCs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.api import (
    OpenSessionRequest,
    OpenSessionResponse,
    PauseRequest,
    PlayRequest,
    RejectReason,
    ResumeRequest,
    ServeResult,
    SessionState,
    SessionStatus,
    StopRequest,
)
from repro.disk.cache import BlockCache, CachedDrive
from repro.errors import (
    AccessDenied,
    AdmissionRejected,
    IntervalError,
    ParameterError,
    UnknownRopeError,
    check_count,
    check_seconds,
)
from repro.faults.recovery import RecoveryPolicy
from repro.obs.recorder import recorder_for
from repro.rope.server import (
    FetchColumns,
    MultimediaRopeServer,
    build_rope_server,
)
from repro.server.batching import RequestBatch, group_into_batches
from repro.service.rpc import RpcChannel, stub_for
from repro.service.rounds import Admission, RoundRobinService, StreamState
from repro.service.session import PlaybackSession

__all__ = ["MediaServer", "build_media_server"]

#: States in which a batch member still needs its batch's physical stream.
_LIVE = (SessionState.OPEN, SessionState.PLAYING, SessionState.PAUSED)
#: The lifecycle verbs ``serve`` takes, by request type.
_VERBS = {PlayRequest: "play", PauseRequest: "pause", ResumeRequest: "resume",
          StopRequest: "stop"}


@dataclass
class _Lease:
    """One physical stream's claim on the disk — a controller slot *or*
    cache pins — held for the sessions in ``members`` and for exactly as
    long as there are any; what it held stays readable afterwards."""

    admission_id: Optional[int] = None
    pinned: Tuple[int, ...] = ()
    members: List["_Session"] = field(default_factory=list)

    @property
    def cache_admitted(self) -> bool:
        return self.admission_id is None


@dataclass(eq=False)  # identity: a session is found among a lease's members
class _Session:
    """Server-side state of one client session."""

    session_id: str
    client_id: str
    rope_id: str
    request_id: Optional[str]
    state: SessionState
    #: When it last asked to play (see :meth:`MediaServer._schedule`).
    arrival: float
    batch_leader: Optional[str] = None
    #: The lease this session last joined (None: refused at open); it
    #: plays on it only while it is one of ``lease.members``.
    lease: Optional[_Lease] = None
    requeues: int = 0
    blocks_delivered: int = 0
    misses: int = 0
    skips: int = 0
    startup_latency: float = 0.0
    reject: Optional[RejectReason] = None
    #: The open that created it.
    opened: Optional[OpenSessionRequest] = None
    #: Blocks of its interval's plan it plays from: those before were
    #: delivered already (before a pause, or on a node that died).
    first_block: int = 0

    def status(self) -> SessionStatus:
        return SessionStatus(
            session_id=self.session_id,
            client_id=self.client_id,
            rope_id=self.rope_id,
            state=self.state,
            blocks_delivered=self.blocks_delivered,
            misses=self.misses,
            skips=self.skips,
            startup_latency=self.startup_latency,
            batch_leader=self.batch_leader,
            cache_admitted=self.lease is not None and self.lease.cache_admitted,
            request_id=self.request_id,
        )

    def response(self, detail: str) -> OpenSessionResponse:
        """What the open that created this session — or a RESUME that was
        refused re-admission — answers."""
        return OpenSessionResponse(
            session_id=self.session_id,
            accepted=self.reject is None,
            reject=self.reject,
            batch_leader=self.batch_leader,
            cache_admitted=self.lease is not None and self.lease.cache_admitted,
            requeues=self.requeues,
            detail=detail,
        )


@dataclass(frozen=True)
class _Remainder(OpenSessionRequest):
    """An open of an interval's plan from block ``first_block`` on (a
    session a dying node handed off): a batch of its own."""

    first_block: int = 0


class MediaServer:
    """Multi-tenant front end over one rope server.

    Parameters
    ----------
    mrs:
        The rope server (and, through it, the storage manager, drive,
        and admission controller) this front end owns.
    batch_window:
        Seconds within which opens of the same rope interval join one
        admission batch.  0 disables batching.
    cache_blocks:
        Block-cache capacity in slots; 0 disables the cache.  Batching
        *requires* the cache (shared reads are realized through it), so
        with the cache disabled every request is admitted individually
        regardless of ``batch_window``.
    requeue_limit:
        How many times an admission-rejected open is re-queued to the
        back of the admission queue before the refusal is final.
    recovery:
        Fault-recovery policy for the service loop.
    obs:
        Observability handle; defaults to the storage manager's.
    """

    def __init__(
        self,
        mrs: MultimediaRopeServer,
        batch_window: float = 0.25,
        cache_blocks: int = 128,
        requeue_limit: int = 0,
        recovery: Optional[RecoveryPolicy] = None,
        obs=None,
    ):
        check_seconds("batch_window", batch_window)
        check_count("cache_blocks", cache_blocks, 0)
        check_count("requeue_limit", requeue_limit, 0)
        self.mrs = mrs
        self.batch_window = batch_window
        self.requeue_limit = requeue_limit
        self.recovery = recovery
        self.obs = obs if obs is not None else mrs.msm.obs
        #: What the request path reports to (None when unobserved).
        self._rec = recorder_for(self.obs, "server")
        self.channel = RpcChannel("mrs-msm", rec=self._rec)
        #: What plans a session and builds the loop its serve runs on.
        self.playback = PlaybackSession(mrs, recovery=recovery, obs=self.obs)
        #: Admission calls cross the MRS↔MSM boundary through this stub,
        #: so every batch admission is logged with marshalled sizes (the
        #: stub targets the MSM's public surface, whose admit/release
        #: continue the caller's span context server-side).
        self._admission = stub_for(mrs.msm, self.channel)
        if cache_blocks:
            self.cache: Optional[BlockCache] = BlockCache(cache_blocks)
            self.drive = CachedDrive(mrs.msm.drive, self.cache, obs=self.obs)
        else:
            self.cache = None
            self.drive = mrs.msm.drive
        #: Shared reads need the cache to exist; without it, batching
        #: would hand followers full-cost reads with no admission slot.
        self.batching = self.batch_window > 0 and self.cache is not None
        self._sessions: Dict[str, _Session] = {}
        self._session_ids = itertools.count(1)
        self._epoch_queue: List[str] = []
        #: The current ``serve`` call's plans (None outside one).
        self._plans: Optional[Dict[tuple, FetchColumns]] = None

    # -- public API: lifecycle verbs --------------------------------------------

    def open(self, request: OpenSessionRequest) -> OpenSessionResponse:
        """Admit one session immediately (an unbatched open)."""
        responses = self._admit_batch(
            group_into_batches([request], window=0.0)[0],
            allow_requeue=False,
        )
        return responses[0]

    def play(self, request: PlayRequest) -> SessionStatus:
        """Schedule an OPEN session into the next service epoch."""
        session = self._session(request.session_id, "play", SessionState.OPEN)
        return self._schedule(session, "play", request.arrival)

    def pause(self, request: PauseRequest) -> SessionStatus:
        """PAUSE a session; destructive pauses release its resources."""
        session = self._session(
            request.session_id, "pause", SessionState.OPEN, SessionState.PLAYING
        )
        self._dequeue(session)
        if request.destructive:
            self._vacate(session)
        session.state = SessionState.PAUSED
        if self._rec is not None:
            self._rec.verb_applied(
                session.request_id, "pause", request.arrival,
                "destructive" if request.destructive else "ok",
            )
        return session.status()

    def resume(self, request: ResumeRequest) -> SessionStatus:
        """RESUME a paused session; released resources are re-admitted."""
        session = self._session(request.session_id, "resume", SessionState.PAUSED)
        if session not in session.lease.members:
            # A destructive pause left the lease: win one back the way it
            # was first held, or be refused.
            rec, rid, now = self._rec, session.request_id, request.arrival
            try:
                lease = self._acquire(
                    rid, now, "resume", probe=session.lease.cache_admitted
                )
            except AdmissionRejected as rejected:
                session.state = SessionState.REJECTED
                session.reject = RejectReason(rejected.cause)
                if rec is not None:
                    rec.admission_decided(now, "rejected")
                    rec.request_closed(rid, now, "rejected", rejected.cause)
                return session.status()
            self._join(session, lease)
        return self._schedule(session, "resume", request.arrival)

    def stop(self, request: StopRequest) -> SessionStatus:
        """STOP a session and release every resource it holds."""
        session = self._session(request.session_id)
        if session.state in (SessionState.STOPPED, SessionState.REJECTED):
            return session.status()
        rec, rid = self._rec, session.request_id
        if rec is not None:
            rec.verb_applied(rid, "stop", request.arrival)
        self._dequeue(session)
        self._vacate(session)
        if session.state is not SessionState.COMPLETED:
            # (A completed session's MRS request ended with its epoch.)
            self.mrs.stop(session.request_id)
        session.state = SessionState.STOPPED
        if rec is not None:
            rec.request_closed(rid, request.arrival, "stopped")
        return session.status()

    def status(self, session_id: str) -> SessionStatus:
        """One session's current status."""
        return self._session(session_id).status()

    def sessions(self) -> List[SessionStatus]:
        """Every known session's status, in session-ID order."""
        return [
            self._sessions[sid].status() for sid in sorted(self._sessions)
        ]

    # -- public API: batched serve -----------------------------------------------

    def serve(self, requests: Sequence) -> ServeResult:
        """Process a queue of typed requests on one round loop.

        Each request is decided at its arrival, in arrival order (ties in
        submission order), against the sessions live then: a batch of
        opens at its ``admit_time`` (a re-queued one after the call's last
        request), a lifecycle verb at its ``arrival`` (see :class:`_Epoch`).
        Then what is live is served to completion.  A request of another
        type raises before any is decided, and a refused verb once what
        was admitted has played out.  Each (rope, interval, media) is
        planned once in the call, and again in the next.
        """
        self._plans = {}
        try:
            return self._serve(requests)
        finally:
            self._plans = None   # an edit between two calls is re-planned

    def _serve(self, requests: Sequence) -> ServeResult:
        for request in requests:
            if not isinstance(request, OpenSessionRequest) and (
                type(request) not in _VERBS
            ):
                raise ParameterError(
                    f"serve() got {type(request).__name__}; expected a "
                    "repro.api request type"
                )
        epoch = _Epoch(self)
        try:
            epoch.feed(requests)
        except ParameterError:
            epoch.finish()   # what it admitted plays out and lets go
            raise
        return epoch.finish()

    # -- admission ---------------------------------------------------------------

    def _admit_batch(
        self,
        batch: RequestBatch,
        requeues: int = 0,
        allow_requeue: bool = True,
    ) -> Optional[List[OpenSessionResponse]]:
        """Admit one batch; None means "re-queue and try again later"."""
        leader_req = batch.leader
        try:
            rope = self.mrs.get_rope(leader_req.rope_id)
        except UnknownRopeError:
            return self._reject_all(
                batch.requests, RejectReason.UNKNOWN_ROPE, requeues,
                f"no rope {leader_req.rope_id!r}",
            )
        denied: List[OpenSessionResponse] = []
        allowed: List[OpenSessionRequest] = []
        for member in batch.requests:
            try:
                rope.check_play(member.client_id)
            except AccessDenied as error:
                denied += self._reject_all(
                    [member], RejectReason.ACCESS_DENIED, requeues, str(error)
                )
            else:
                allowed.append(member)
        if not allowed:
            return denied
        leader_req = allowed[0]
        try:
            leader_rid = self._open_request(leader_req)
        except IntervalError as error:
            return denied + self._reject_all(
                allowed, RejectReason.EMPTY_INTERVAL, requeues, str(error)
            )
        rec, now = self._rec, batch.admit_time
        if rec is not None:
            rec.request_opened(
                leader_rid, now, rope=leader_req.rope_id,
                client=leader_req.client_id, batch_size=len(allowed),
            )
        try:
            lease = self._acquire(
                leader_rid, now, "controller", probe=self.cache is not None
            )
        except AdmissionRejected as rejected:
            self.mrs.stop(leader_rid)
            will_requeue = allow_requeue and requeues < self.requeue_limit
            if rec is not None:
                status = "requeued" if will_requeue else "rejected"
                rec.admission_decided(now, status)
                rec.request_closed(leader_rid, now, status)
            if will_requeue:
                return None
            reason = (
                RejectReason.QUEUE_FULL
                if requeues
                else RejectReason(rejected.cause)
            )
            return denied + self._reject_all(
                allowed, reason, requeues, str(rejected)
            )
        leader = self._create_session(
            leader_req, leader_rid, now, requeues, lease
        )
        for follower_req in allowed[1:]:
            follower_rid = self._open_request(follower_req)
            self._create_session(follower_req, follower_rid, now, requeues, lease)
            if rec is not None:
                rec.request_opened(
                    follower_rid, now, rope=follower_req.rope_id,
                    client=follower_req.client_id,
                    batch_leader=leader.session_id,
                )
        if rec is not None:
            rec.batch_admitted(
                batch.key.rope_id, batch.size, len(allowed),
                leader.session_id, lease.cache_admitted, requeues,
            )
        for member, request in zip(lease.members, allowed):
            if request.auto_play:
                member.state = SessionState.PLAYING
                self._epoch_queue.append(member.session_id)
        return denied + [
            member.response(f"request {member.request_id}")
            for member in lease.members
        ]

    def _open_request(self, request: OpenSessionRequest) -> str:
        """The MRS request behind one open; its admission is the lease's."""
        return self.mrs.open_request(
            request.client_id,
            request.rope_id,
            start=request.start,
            length=request.length,
            media=request.media,
        )

    def _create_session(
        self,
        request: OpenSessionRequest,
        request_id: Optional[str],
        arrival: float,
        requeues: int,
        lease: Optional[_Lease] = None,
        reject: Optional[RejectReason] = None,
    ) -> _Session:
        session = _Session(
            session_id=f"C{next(self._session_ids):04d}",
            client_id=request.client_id,
            rope_id=request.rope_id,
            request_id=request_id,
            state=(
                SessionState.OPEN if reject is None else SessionState.REJECTED
            ),
            arrival=arrival,
            requeues=requeues,
            reject=reject,
            opened=request,
            first_block=getattr(request, "first_block", 0),
        )
        self._sessions[session.session_id] = session
        if lease is not None:
            self._join(session, lease)
        return session

    def _reject_all(
        self,
        members: Sequence[OpenSessionRequest],
        reason: RejectReason,
        requeues: int,
        detail: str,
    ) -> List[OpenSessionResponse]:
        """Refuse every one of *members* for the same typed *reason*."""
        responses = []
        for request in members:
            session = self._create_session(
                request, None, request.arrival, requeues, reject=reason
            )
            if self._rec is not None:
                self._rec.request_rejected(
                    session.session_id, request.arrival, request.rope_id,
                    reason.value,
                )
            responses.append(session.response(detail))
        return responses

    # -- resource management ---------------------------------------------------------

    def _session(
        self, session_id: str, verb: str = "", *allowed: SessionState
    ) -> _Session:
        """The session a request names — in a state that allows *verb*."""
        session = self._sessions.get(session_id)
        if session is None:
            raise ParameterError(f"unknown session {session_id!r}")
        if verb and session.state not in allowed:
            raise ParameterError(
                f"cannot {verb} session {session_id} in state "
                f"{session.state.value}"
            )
        return session

    def _schedule(self, session: _Session, verb: str, arrival: float) -> SessionStatus:
        """*session* asked to play at *arrival* (never before its open's):
        the loop joins it there, and its start-up counts from there."""
        session.state = SessionState.PLAYING
        session.arrival = max(session.arrival, arrival)
        self._epoch_queue.append(session.session_id)
        if self._rec is not None:
            self._rec.verb_applied(session.request_id, verb, arrival)
        return session.status()

    def _dequeue(self, session: _Session) -> None:
        self._epoch_queue = [
            sid for sid in self._epoch_queue if sid != session.session_id
        ]

    def _fetches(self, request_id: str) -> FetchColumns:
        """*request_id*'s fetch sequence: in a ``serve`` call, which edits
        no rope, the one plan of its (rope, interval, media)."""
        plans = {} if self._plans is None else self._plans
        request = self.mrs.get_request(request_id)
        key = (request.rope_id, request.start, request.length, request.media)
        if key not in plans:
            plans[key] = self.playback.fetch_sequence(request_id)
        return plans[key]

    def _acquire(
        self, request_id: str, now: float, path: str, probe: bool
    ) -> _Lease:
        """Take the one claim a physical stream needs before it may read.

        With *probe*, a plan whose every disk slot is resident is pinned:
        it consumes no disk-round budget, so it bypasses the §3.4
        controller.  Otherwise the controller decides, across the RPC
        channel (*path* tags that span), and its refusal propagates.
        """
        rec = self._rec
        request = self.mrs.get_request(request_id)
        if probe:
            planned = self._fetches(request_id)
            slots = tuple(sorted(set(planned.slots) - {None}))
            if (
                self.cache.resident_fraction(slots) >= 1.0
                and self.cache.pin(slots)
            ):
                if rec is not None:
                    rec.cache_admitted(
                        request_id, now, request.rope_id, len(slots)
                    )
                return _Lease(pinned=slots)
        descriptor = self.mrs.msm.descriptor_for_media(
            request.media.includes_video
        )
        carry = (
            rec.admission_begun(request_id, now, path)
            if rec is not None else {}
        )
        decision = self._admission.admit(descriptor, **carry)
        if rec is not None:
            rec.admission_decided(now)
        return _Lease(admission_id=decision.request_id)

    def _hold_what_it_reads(self, session: _Session, slots) -> List[str]:
        """Make *session*'s lease cover the *slots* its plan reads; returns
        the members refused instead.

        Cache pins cover only the slots resident at admission, and an
        edit since may point the plan elsewhere.  Such a lease goes back
        through :meth:`_acquire`, the one way in: it re-pins if the slots
        are resident, else takes a controller slot, else every member
        ends REJECTED with the controller's reason.
        """
        lease = session.lease
        if not lease.cache_admitted or not set(slots).difference(
            lease.pinned, (None,)
        ):
            return []
        rec, now = self._rec, session.arrival
        try:
            held = self._acquire(session.request_id, now, "epoch", probe=True)
        except AdmissionRejected as rejected:
            held, cause = None, rejected.cause
            if rec is not None:
                rec.admission_decided(now, "rejected")
        members = list(lease.members)
        for member in members:
            self._vacate(member)   # the last one out unpins the old slots
            if held is not None:
                self._join(member, held)
                continue
            member.state = SessionState.REJECTED
            member.reject = RejectReason(cause)
            self.mrs.stop(member.request_id)
            if rec is not None:
                rec.request_closed(member.request_id, now, "rejected", cause)
        return [] if held is not None else [m.session_id for m in members]

    @staticmethod
    def _join(session: _Session, lease: _Lease) -> None:
        lease.members.append(session)
        session.lease = lease
        session.batch_leader = lease.members[0].session_id

    def _vacate(self, session: _Session) -> None:
        """*session* stopped, completed or paused destructively: it leaves
        its lease.  A batch is one physical stream, so the lease stays held
        while another member is live (the first of them is reported as the
        leader) and none reads on a slot the controller believes free; the
        last one out gives the slot or the pins back, over the RPC channel.
        """
        lease = session.lease
        if lease is None or session not in lease.members:
            return
        lease.members.remove(session)
        live = [member for member in lease.members if member.state in _LIVE]
        for member in live:
            member.batch_leader = live[0].session_id
        if live:
            return
        lease.members.clear()
        if lease.admission_id is not None:
            carry = (
                self._rec.release_carry(session.request_id)
                if self._rec is not None else {}
            )
            self._admission.release(lease.admission_id, **carry)
        else:
            self.cache.unpin(lease.pinned)


class _Epoch:
    """One server run, fed one request at a time on the requests' own
    clock: :meth:`submit` runs the round loop to a request's arrival and
    decides it there, :meth:`finish` plays out what is still live.  A
    ``serve`` call is one run; so is each node's part of a cluster's.

    A session joins the loop at the arrival of the PLAY (or RESUME) that
    starts it, and leaves its lease once its last block has played out.
    The loop is run to an open only once a live session could have played
    out by then: before that no slot can have come free, so opens that all
    overlap are decided before round 0.  A verb always runs it there."""

    def __init__(self, server: MediaServer):
        self.server = server
        self.loop: Optional[RoundRobinService] = None
        self.k = 0
        self.k_used = 0
        self.batches = 0
        #: Who the call's requests named, and each refusal, in order.
        self.touched: List[str] = []
        self.rejects: List[OpenSessionResponse] = []
        #: Each planned session's plan and earliest play-out end; each one
        #: handed to the loop, in that order, and its stream.
        self.plans: Dict[str, Tuple[FetchColumns, float]] = {}
        self.streams: Dict[str, StreamState] = {}
        self.joining: List[Admission] = []
        self.released: Set[str] = set()
        #: Each stream a verb took off the loop: its wake then, and when.
        self.parked: Dict[str, Tuple[float, float]] = {}

    def _playing(self, ids) -> List[_Session]:
        sessions = self.server._sessions
        return [s for s in map(sessions.get, ids) if s.state is SessionState.PLAYING]

    def live(self) -> List[_Session]:
        """The sessions playing or scheduled to play."""
        return self._playing(self.server._epoch_queue) + self._playing(self.streams)

    def _plan(self, session: _Session) -> Tuple[FetchColumns, float]:
        """What *session* reads — its interval's plan from its first block
        on — and when it could have played out at the earliest."""
        if session.session_id not in self.plans:
            fetches = self.server._fetches(session.request_id)
            if session.first_block:
                fetches = fetches[session.first_block:]
            end = session.arrival + sum(fetches.durations)
            self.plans[session.session_id] = fetches, end
        return self.plans[session.session_id]

    def _idle(self) -> bool:
        """No stream is being read or waits to join: k may change."""
        return not self.joining and all(
            s.next_fetch == len(s.fetches.slots) for s in self.streams.values()
        )

    def feed(self, requests: Sequence) -> None:
        """Decide *requests*, opens grouped into batches, each batch at its
        ``admit_time`` and each verb at its arrival, in that order (ties in
        submission order); a batch refused with re-queue budget left is
        decided again after the last."""
        server = self.server
        opens = [r for r in requests if isinstance(r, OpenSessionRequest)]
        window = server.batch_window if server.batching else 0.0
        batches = group_into_batches(
            [r for r in opens if not isinstance(r, _Remainder)], window,
            rec=server._rec,
        )
        remainders = [r for r in opens if isinstance(r, _Remainder)]
        if remainders:
            batches += group_into_batches(remainders, 0.0, rec=server._rec)
        self.batches += len(batches)
        index = {id(request): i for i, request in enumerate(requests)}
        timeline = sorted(
            [(b.admit_time, index[id(b.leader)], b) for b in batches]
            + [(r.arrival, index[id(r)], r) for r in requests if type(r) in _VERBS],
            key=itemgetter(0, 1),
        )
        last = timeline[-1][0] if timeline else 0.0
        queue = [(at, item, 0) for at, _, item in timeline]
        for at, item, requeues in queue:
            if not self.submit(at, item, requeues):
                # Refused with re-queue budget left: decided again after
                # the last request.
                queue.append((last, item, requeues + 1))

    def frees_by(self, at: float) -> bool:
        """Whether a live session could have played out by *at*: before
        that no slot can have come free."""
        return any(self._plan(session)[1] <= at for session in self.live())

    def catch_up(self, at: float) -> None:
        """Run the loop to *at* once a slot may have come free by then, so
        opens that all overlap are decided before round 0."""
        if self.frees_by(at):
            self._reach(at)

    def submit(self, at: float, item, requeues: int) -> bool:
        """Decide *item* at *at*: a batch of opens (False: re-queue it) or
        a lifecycle verb."""
        server = self.server
        if isinstance(item, RequestBatch):
            self.catch_up(at)
            responses = server._admit_batch(item, requeues=requeues)
            if responses is None:
                return False
            self.touched += [response.session_id for response in responses]
            self.rejects += [r for r in responses if not r.accepted]
        else:
            self._reach(at)
            self._apply(item)
        if self.loop is not None:
            self.hand_over()
        return True

    def _reach(self, at: float) -> None:
        """Run the loop to *at* and release each session played out."""
        self.advance(at)
        done = [
            session for session in self._playing(self.streams)
            for stream in [self.streams[session.session_id]]
            if len(stream.ends) == len(stream.fetches.slots)
            # (None at all: RESUMEd with every block read before its pause.)
            and (not stream.ends or stream.ends[-1] <= at)
        ]
        for session in done:   # all have ended before any vacates
            session.state = SessionState.COMPLETED
        for session in done:
            self.server._vacate(session)
            self.server.mrs.stop(session.request_id)
            self.released.add(session.session_id)

    def _apply(self, request) -> None:
        """Apply a lifecycle verb at its arrival.  The loop reads a stream
        only while its session is PLAYING: a PAUSE or STOP parks it, and a
        RESUME of this call un-parks it, its playback held for the pause
        (each deadline and play-out end after the PAUSE moves by its
        length).  A session played out already takes a STOP; any other
        verb is answered with its status."""
        server, sid = self.server, request.session_id
        stream = self.streams.get(sid)
        if sid in self.released and not isinstance(request, StopRequest):
            status = server._sessions[sid].status()
        else:
            status = getattr(server, _VERBS[type(request)])(request)
        self.touched.append(sid)
        if isinstance(request, ResumeRequest) and status.state is SessionState.REJECTED:
            self.rejects.append(
                server._sessions[sid].response("re-admission on resume failed")
            )
        if stream is None or sid in self.released:
            return
        if status.state is not SessionState.PLAYING:
            self.parked.setdefault(sid, (stream._wake, request.arrival))
            stream._wake = float("inf")   # no round reads it from here
        elif sid in self.parked:
            wake, paused = self.parked.pop(sid)
            held = request.arrival - paused
            if stream.clock_start is not None:
                start = stream.clock_start
                stream.offsets[:] = [
                    o + held if start + o > paused else o for o in stream.offsets
                ]
                stream.ends[:] = [e + held if e > paused else e for e in stream.ends]
            stream._wake = wake + held if wake > paused else wake
            server._dequeue(server._sessions[sid])   # the loop holds it

    def hand_over(self) -> None:
        """The sessions scheduled to play join the loop at their arrivals:
        an idle loop restarts at the controller's k, a running one takes
        them if that k fits its own, else they wait for it to go idle."""
        server, controller = self.server, self.server.mrs.msm.admission
        queue = self._playing(server._epoch_queue)
        running = self.loop is not None and not self._idle()
        if not queue or running and max(1, controller.current_k) > self.k:
            return
        server._epoch_queue = []
        for session in queue:
            if session.state is SessionState.PLAYING:   # not refused yet
                slots = self._plan(session)[0].slots
                for sid in server._hold_what_it_reads(session, slots):
                    self.rejects.append(server._sessions[sid].response(
                        "re-admission at the epoch failed"
                    ))
        queue = self._playing(session.session_id for session in queue)
        if queue and not running:
            k = self.k = max(1, controller.current_k)
            self.k_used = max(self.k_used, k)
            if self.loop is None:
                self.loop = server.playback.loop(server.drive, k)
            self.loop.k_schedule = lambda _round, _active: k
        for session in queue:
            stream = self.streams[session.session_id] = server.playback.stream(
                session.request_id, self.k, self._plan(session)[0]
            )
            self.joining.append(Admission(session.arrival, stream))

    def advance(self, until: float = float("inf")) -> Optional[Dict]:
        """Run the loop to *until* (an arrival), or to the end and return
        its metrics, handing it each session scheduled to play."""
        while True:
            self.hand_over()
            if self.loop is None:
                return None
            joining, self.joining = self.joining, []
            waiting = self._playing(self.server._epoch_queue)
            if until == float("inf") and not waiting:
                return self.loop.run((), joining)
            self.loop.run((), joining, until=until)   # inf: until it is idle
            if not (waiting and self._idle()):
                return None

    def finish(self) -> ServeResult:
        """Serve every session to completion: the run's result.  A stream a
        verb took off the loop lists the slots it had read by then, and a
        PAUSEd one is RESUMEd, in a later run, from the block after them."""
        server, rec = self.server, self.server._rec
        fetched: Dict[str, int] = {}
        for sid in self.parked:   # not resumed: the loop reads no more of it
            stream = self.streams[sid]
            fetched[sid] = stream.next_fetch
            server._sessions[sid].first_block += stream.next_fetch
            stream.next_fetch = len(stream.fetches.slots)
        metrics = self.advance()
        sessions = [server._sessions[sid] for sid in self.streams]
        for session in sessions:   # what each was delivered, however it ended
            scored = metrics[session.request_id]
            session.blocks_delivered = scored.blocks_delivered
            session.misses = scored.misses
            session.skips = scored.skips
            session.startup_latency = scored.startup_latency
        # One a verb of this call paused or stopped keeps that state, and
        # one the loop released is completed already.
        played = [
            session for session in sessions
            if session.state in (SessionState.PLAYING, SessionState.COMPLETED)
        ]
        for session in played:
            session.state = SessionState.COMPLETED
        # Every member that played has ended before any of them vacates:
        # a lease outlives them only for a member that has yet to play.
        for session in played:
            if session.session_id not in self.released:
                server._vacate(session)
                server.mrs.stop(session.request_id)
            if rec is not None:
                rec.request_closed(
                    session.request_id, session.arrival,
                    "degraded" if session.misses or session.skips else "ok",
                )
        touched = set(self.touched + list(self.streams))
        touched.update(response.session_id for response in self.rejects)
        return ServeResult(
            statuses=tuple(server._sessions[sid].status() for sid in sorted(touched)),
            rejects=tuple(self.rejects),
            rounds=self.loop.rounds_run if self.loop is not None else 0,
            k_used=self.k_used, batches=self.batches,
            block_sequences={
                sid: tuple(self.plans[sid][0].slots[:fetched.get(sid)])
                for sid in self.streams
            },
            cache_stats=(
                server.cache.stats.as_dict() if server.cache is not None else {}
            ),
        )


def build_media_server(
    obs=None,
    cache_blocks: int = 512,
    batch_window: float = 0.25,
    requeue_limit: int = 0,
    recovery: Optional[RecoveryPolicy] = None,
    label: Optional[str] = None,
) -> MediaServer:
    """A MediaServer over a fresh testbed drive and storage manager."""
    return MediaServer(
        build_rope_server(obs=obs, label=label),
        batch_window=batch_window,
        cache_blocks=cache_blocks,
        requeue_limit=requeue_limit,
        recovery=recovery,
        obs=obs,
    )
