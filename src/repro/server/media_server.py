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
from typing import Dict, List, Optional, Sequence, Tuple

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
from repro.rope.server import MultimediaRopeServer, build_rope_server
from repro.server.batching import RequestBatch, group_into_batches
from repro.service.rpc import RpcChannel, stub_for
from repro.service.session import PlaybackSession

__all__ = ["MediaServer", "build_media_server"]

#: States in which a batch member still needs its batch's physical stream.
_LIVE = (SessionState.OPEN, SessionState.PLAYING, SessionState.PAUSED)


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
        #: Admission calls cross the MRS↔MSM boundary through this stub,
        #: so every batch admission is logged with marshalled sizes (the
        #: stub targets the MSM's public surface, whose admit/release
        #: continue the caller's span context server-side).
        self._admission = stub_for(mrs.msm, self.channel)
        if cache_blocks:
            self.cache: Optional[BlockCache] = BlockCache(cache_blocks)
            self._drive = CachedDrive(mrs.msm.drive, self.cache, obs=self.obs)
        else:
            self.cache = None
            self._drive = mrs.msm.drive
        #: Shared reads need the cache to exist; without it, batching
        #: would hand followers full-cost reads with no admission slot.
        self.batching = self.batch_window > 0 and self.cache is not None
        self._sessions: Dict[str, _Session] = {}
        self._session_ids = itertools.count(1)
        self._epoch_queue: List[str] = []

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
        session.state = SessionState.PLAYING
        self._epoch_queue.append(session.session_id)
        if self._rec is not None:
            self._rec.verb_applied(session.request_id, "play", request.arrival)
        return session.status()

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
        session.state = SessionState.PLAYING
        self._epoch_queue.append(session.session_id)
        if self._rec is not None:
            self._rec.verb_applied(session.request_id, "resume", request.arrival)
        return session.status()

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
        """Process a queue of typed requests and run one service epoch.

        Opens are grouped into admission batches; lifecycle verbs
        (addressed to sessions from this or earlier calls) are applied
        in arrival order after admission; then every session scheduled
        for playback is serviced to completion in one round-robin epoch.
        """
        dispatch = {
            PlayRequest: self.play,
            PauseRequest: self.pause,
            ResumeRequest: self.resume,
            StopRequest: self.stop,
        }
        opens: List[OpenSessionRequest] = []
        lifecycle: List[Tuple[float, int, object]] = []
        for index, request in enumerate(requests):
            if isinstance(request, OpenSessionRequest):
                opens.append(request)
            elif type(request) in dispatch:
                lifecycle.append((request.arrival, index, request))
            else:
                raise ParameterError(
                    f"serve() got {type(request).__name__}; expected a "
                    "repro.api request type"
                )
        touched: List[str] = []
        rejects: List[OpenSessionResponse] = []
        batches = group_into_batches(
            opens, self.batch_window if self.batching else 0.0, rec=self._rec
        )
        queue: List[Tuple[RequestBatch, int]] = [(b, 0) for b in batches]
        position = 0
        while position < len(queue):
            batch, requeues = queue[position]
            position += 1
            responses = self._admit_batch(batch, requeues=requeues)
            if responses is None:
                # Rejected with re-queue budget left: back of the queue.
                queue.append((batch, requeues + 1))
                continue
            for response in responses:
                touched.append(response.session_id)
                if not response.accepted:
                    rejects.append(response)
        for _arrival, _index, request in sorted(
            lifecycle, key=lambda item: (item[0], item[1])
        ):
            status = dispatch[type(request)](request)
            touched.append(status.session_id)
            if status.state is SessionState.REJECTED:
                rejects.append(
                    self._sessions[status.session_id].response(
                        "re-admission on resume failed"
                    )
                )
        played, rounds, k_used, sequences = self._run_epoch(rejects)
        touched.extend(played)
        return ServeResult(
            statuses=tuple(
                self._sessions[sid].status() for sid in sorted(set(touched))
            ),
            rejects=tuple(rejects),
            rounds=rounds,
            k_used=k_used,
            batches=len(batches),
            cache_stats=(
                self.cache.stats.as_dict() if self.cache is not None else {}
            ),
            block_sequences=sequences,
        )

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

    # -- epoch execution -----------------------------------------------------------

    def _playback_session(self) -> PlaybackSession:
        return PlaybackSession(self.mrs, recovery=self.recovery, obs=self.obs)

    def _run_epoch(
        self, rejects: List[OpenSessionResponse]
    ) -> Tuple[List[str], int, int, Dict]:
        """Service every scheduled session to completion; returns who
        played or was refused, the rounds run, the k used and each
        session's slots.  A refusal's response is added to *rejects*."""
        queue = [
            sid for sid in self._epoch_queue
            if self._sessions[sid].state is SessionState.PLAYING
        ]
        self._epoch_queue = []
        if not queue:
            return [], 0, 0, {}
        playback = self._playback_session()
        #: Each session is planned once; the same sequence is reported
        #: in ``block_sequences`` and streamed by the round service.
        fetches: Dict[str, List] = {}
        refused: List[str] = []
        for sid in queue:
            session = self._sessions[sid]
            if session.state is SessionState.PLAYING:   # not refused yet
                planned = playback.fetch_sequence(session.request_id)
                fetches[session.request_id] = planned
                refused += self._hold_what_it_reads(session, planned.slots)
        for sid in refused:
            rejects.append(
                self._sessions[sid].response("re-admission at the epoch failed")
            )
        queue = [sid for sid in queue if sid not in refused]
        if not queue:
            return refused, 0, 0, {}
        k = max(1, self.mrs.msm.admission.current_k)
        t0 = min(self._sessions[sid].arrival for sid in queue)
        joins: List[Tuple[float, str]] = []
        sequences: Dict[str, Tuple[Optional[int], ...]] = {}
        for sid in queue:
            session = self._sessions[sid]
            sequences[sid] = tuple(fetches[session.request_id].slots)
            joins.append((session.arrival - t0, session.request_id))
        # The leader of each batch precedes its followers in queue order,
        # so within a round the leader's miss populates the cache and
        # every follower's identical read hits it.
        original_drive = self.mrs.msm.drive
        self.mrs.msm.drive = self._drive
        try:
            result = playback.run((), k=k, admissions=joins, fetches=fetches)
        finally:
            self.mrs.msm.drive = original_drive
        for sid in queue:
            session = self._sessions[sid]
            metrics = result.metrics[session.request_id]
            session.blocks_delivered = metrics.blocks_delivered
            session.misses = metrics.misses
            session.skips = metrics.skips
            session.startup_latency = metrics.startup_latency
            session.state = SessionState.COMPLETED
        # Every member that played has ended before any of them vacates:
        # a lease outlives them only for a member that has yet to play.
        for sid in queue:
            session = self._sessions[sid]
            self._vacate(session)
            self.mrs.stop(session.request_id)
            if self._rec is not None:
                self._rec.request_closed(
                    session.request_id, session.arrival,
                    "degraded" if session.misses or session.skips else "ok",
                )
        return queue + refused, result.rounds, result.k_used, sequences

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

    def _dequeue(self, session: _Session) -> None:
        self._epoch_queue = [
            sid for sid in self._epoch_queue if sid != session.session_id
        ]

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
            planned = self._playback_session().fetch_sequence(request_id)
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
