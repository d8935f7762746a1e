"""Round-robin servicing of multiple requests (§3.4).

"In order to service multiple requests simultaneously, the file system
proceeds in rounds.  In each round, it multiplexes among the media block
transfers of the n requests", reading k consecutive blocks per request
before switching; switching costs a real head movement (bounded by the
maximum seek).

:class:`RoundRobinService` replays any number of playback plans through
one simulated drive under a per-round k schedule, scoring continuity per
request.  It supports:

* mid-run admissions (new streams joining at their own arrival time)
  with either the paper's transition-safe step-of-1 k growth or a naive
  jump — the E3 experiment's comparison;
* buffer-capacity regulation ("regulating the number of data blocks
  transferred for each request during each service round, so as not to
  overflow the buffering available in the display subsystem");
* per-request playback clocks that start when the request's anti-jitter
  read-ahead (its first k-block service) completes.

It is the only round loop; what §6.2 and §3 vary are its two policy
points, both unset on the request path: the *order* a round visits its
requests in (:func:`~repro.service.scan_order.scan_order`) and the work
served *after the turns* — RECORD writes and best-effort text
(:class:`~repro.service.mixed_rounds.RecordStream`,
:class:`~repro.service.besteffort.TextQueue`).
"""

from __future__ import annotations

from bisect import bisect, bisect_right, insort
from dataclasses import dataclass, field
from itertools import accumulate, repeat
from operator import add, attrgetter
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.disk.drive import SimulatedDrive
from repro.errors import HeadFailureError, ParameterError, check_count, check_seconds
from repro.faults.recovery import RecoveryPolicy, read_with_recovery
from repro.obs.recorder import recorder_for
from repro.rope.server import BlockFetch, FetchColumns
from repro.sim.metrics import ContinuityMetrics

__all__ = [
    "StreamState",
    "Admission",
    "RoundRobinService",
]


@dataclass
class StreamState:
    """One request's progress through its fetch plan.

    ``k_override``, when set, replaces the round's global k for this
    stream — the per-request k_i of Eq. (11)'s general formulation
    (see :func:`repro.core.admission.solve_heterogeneous_k`).  *fetches*
    is held as :class:`~repro.rope.server.FetchColumns`, converted once
    here; ``next_fetch`` is the cursor the service loop walks them with.
    The loop adds two facts per block: ``ready[i]``, when block i
    landed, and ``ends[i]``, when it finished playing; §3.1's continuity
    is scored from those columns once the run is over
    (:meth:`~repro.sim.metrics.ContinuityMetrics.score`).
    """

    request_id: str
    fetches: Sequence[BlockFetch]
    buffer_capacity: int
    k_override: Optional[int] = None
    next_fetch: int = 0
    clock_start: Optional[float] = None
    metrics: ContinuityMetrics = field(default_factory=ContinuityMetrics)
    #: When each delivered block landed in the display buffer (for a
    #: skipped one, when recovery gave up on it), in playback order.
    ready: List[float] = field(default_factory=list)
    #: Playback time before each block — the left fold of the plan's
    #: durations — so block i is due at ``clock_start + offsets[i]``.
    offsets: List[float] = field(init=False, repr=False)
    #: Smallest positive block duration in the plan — the T_i of Eq.
    #: (11)'s ``k_i * T_i`` budget — or 0.0 when there is none.
    duration_floor: float = field(init=False, repr=False)
    #: Delivery indexes whose data never arrived (fault-recovery skips);
    #: the playback timeline still advances over them (the glitch).
    skipped_indices: Set[int] = field(default_factory=set)
    #: Causal-trace context: the server-side root span (or wire dict)
    #: this stream's service spans continue, if any.
    trace: object = None
    #: Next block index whose begin/end the service recorder wants
    #: reported (it sets and advances this; -1: none).
    report_at: int = -1
    #: Modeled seconds this stream's turns took, each turn's added in turn
    #: order while a recorder watches the loop (which seeds it on open).
    turn_cost: float = field(default=0.0, init=False, repr=False)
    #: When each landed block finished playing — §3.1's cascade
    #: ``ends[i] = max(ends[i-1], ready[i]) + duration[i]`` from the
    #: clock's start — folded once per block as it lands (the read-ahead's
    #: when the clock starts): once started, ``len(ends) == len(ready)``.
    #: Non-decreasing, so consumption at any time is one bisect.
    ends: List[float] = field(default_factory=list, init=False, repr=False)
    #: When the display buffer next frees a slot (the end of the next
    #: block to finish playing), stored when a turn fills it: only
    #: consumption frees room, so the loop skips the stream until then
    #: and idles to the earliest of these.  An infinite wake parks the
    #: stream: no round reads it (a paused media-server session's).
    _wake: float = field(default=0.0, init=False, repr=False)
    #: Blocks on board when the playback clock started (the anti-jitter
    #: read-ahead): the buffer high-water counts the ones landing after.
    _read_ahead: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        self.metrics.request_id = self.request_id
        self.fetches = FetchColumns.of(self.fetches)
        durations = self.fetches.durations
        self.offsets = list(accumulate(durations, initial=0.0))
        floor = min(durations, default=0.0)
        if floor <= 0.0:
            # Only plans with zero-length (silence) blocks pay the filter.
            floor = min((d for d in durations if d > 0.0), default=0.0)
        self.duration_floor = floor
        check_count("buffer_capacity", self.buffer_capacity)
        if self.k_override is not None:
            check_count("k_override", self.k_override)


@dataclass(frozen=True)
class Admission:
    """A stream joining the service at modeled time *join* (seconds from
    the run's origin): it is admitted at the first round that starts at
    or after it, and its start-up is measured from it."""

    join: float
    stream: StreamState

    def __post_init__(self) -> None:
        check_seconds("join", self.join)   # a NaN join would never come


class RoundRobinService:
    """The §3.4 service loop over one drive.

    Parameters
    ----------
    drive:
        The shared mechanism.
    k_schedule:
        Callable ``(round_number, active_count) -> k`` giving the blocks
        per request to transfer in that round.  The paper's algorithm
        passes the admission controller's staged plan through this hook.
    recovery:
        Fault-recovery policy applied when the drive carries a
        :class:`~repro.faults.injector.FaultInjector`; defaults to the
        standard bounded retry.
    on_head_failure:
        Invoked once, with the :class:`HeadFailureError`, the first time
        the drive's head dies mid-service (admission revalidation hook).
    obs:
        Optional :class:`~repro.obs.Observability` handle (or node-scoped
        view).  The loop reports what happened to the one
        :class:`~repro.obs.recorder.ServiceRecorder` built from *obs*;
        with nothing to record there is no recorder and every report
        site is a single None test.
    order:
        Visiting order ``(drive, active, round_number) -> streams`` for
        each round; None is the paper's arrival order.
    after_turns:
        Work served, in list order, once a round's playback turns are
        done.  Each item has ``serve(service, time, round_start, active,
        k) -> (time, progressed)``; ``due``, the modeled time its next
        unit can be served (inf: none it would hold the loop for) — the
        loop runs while any is finite and never idles past the earliest;
        and ``results()``, metrics by request id added to :meth:`run`'s.
    """

    def __init__(
        self,
        drive: SimulatedDrive,
        k_schedule: Callable[[int, int], int],
        recovery: Optional[RecoveryPolicy] = None,
        on_head_failure: Optional[Callable[[HeadFailureError], None]] = None,
        obs=None,
        order: Optional[Callable] = None,
        after_turns: Sequence = (),
    ):
        self.drive = drive
        self.k_schedule = k_schedule
        self.order = order
        self.after_turns = list(after_turns)
        self.recovery = recovery or RecoveryPolicy()
        self.on_head_failure = on_head_failure
        self.head_failure: Optional[HeadFailureError] = None
        self.rounds_run = 0
        self._rec = recorder_for(obs, "loop")
        #: A stopped run: its time, round number, active streams, and the
        #: admissions not joined yet (by join) and given (in that order).
        self._stopped: Optional[tuple] = None

    def run(
        self,
        initial: Sequence[StreamState] = (),
        admissions: Sequence[Admission] = (),
        max_rounds: int = 100_000,
        until: Optional[float] = None,
    ) -> Optional[Dict[str, ContinuityMetrics]]:
        """Serve *initial* from time 0 and each of *admissions* from its
        join, with the streams earlier calls of the run added.

        With *until* (modeled seconds), stop at the first round start at
        or after it (*until* ends an idle wait as a join does), or once
        nothing is left to serve, and return None: the next call resumes
        there, so a stream joining at *until* is served as if given up
        front.  Without, serve every stream to completion and return the
        metrics of the run's streams, per request."""
        check_count("max_rounds", max_rounds)
        never = float("inf")
        time, round_number, active, pending, joined = (
            self._stopped or (0.0, 0, [], [], [])
        )
        for admission in [Admission(0.0, s) for s in initial] + list(admissions):
            joined.append(admission)
            insort(pending, admission, key=attrgetter("join"))
        rec, order, after = self._rec, self.order, self.after_turns
        # The joins due by the stop, then the stop itself (*until*, or
        # never): a join that admits nothing.
        stop = never if until is None else until
        joins = [admission.join for admission in pending]
        cut = bisect(joins, stop)
        joins[cut:] = [stop]
        next_pending = 0
        compact = True   # a joined plan may be empty
        while True:
            while joins[next_pending] <= time:
                if next_pending == cut:
                    break
                stream = pending[next_pending].stream
                next_pending += 1
                active.append(stream)
                compact = True
                if rec is not None:
                    rec.stream_opened(stream, time)
            if joins[next_pending] <= time:
                break   # the stop: a round would start at or after it
            if compact:
                # Compact finished streams out in place, preserving order;
                # only a join or a turn that ends a plan can add one.
                write = 0
                for stream in active:
                    if stream.next_fetch < len(stream.fetches.slots):
                        active[write] = stream
                        write += 1
                del active[write:]
            if not active and all(work.due == never for work in after):
                if next_pending == cut:
                    break   # nothing left to serve before the stop
                # Nothing happens until the next join: no round runs
                # before it.
                time = joins[next_pending]
                continue
            k = self.k_schedule(round_number, len(active))
            if not isinstance(k, int) or k < 1:
                raise ParameterError(
                    f"k schedule returned {k!r} for round {round_number}"
                )
            round_start = time
            visit = order(self.drive, active, round_number) if order else active
            time, progressed, compact, wake = self._run_round(
                time, visit, k, round_number
            )
            if after:   # guarded: a request-path round pays nothing for it
                for work in after:
                    time, served = work.serve(self, time, round_start, active, k)
                    progressed = progressed or served
                for work in after:
                    if work.due < wake:
                        wake = work.due
            # The round ends with its idle wait: until consumption frees a
            # buffer (the earliest stored wake), work (a capture) falls due
            # or the next stream joins (or the stop comes).  A stream with
            # room left, or one that after-turn work (text reads) carried
            # time past, has a past wake: the next round follows at once.
            if joins[next_pending] < wake:
                wake = joins[next_pending]
            if time < wake < never:
                time = wake
            elif not progressed and wake == never:
                raise ParameterError(
                    "service deadlocked: all buffers full and no "
                    "playback consuming them"
                )
            round_number += 1
            self.rounds_run += 1
            if rec is not None:
                rec.round_end(time, round_number)
            if round_number > max_rounds:
                raise ParameterError(
                    f"exceeded {max_rounds} rounds; k schedule likely "
                    "starves a stream"
                )
        if until is not None:
            del pending[:next_pending]
            self._stopped = time, round_number, active, pending, joined
            return None
        self._stopped = None
        for admission in joined:
            stream = admission.stream
            start = stream.clock_start
            if start is not None:
                stream.metrics.startup_latency = start - admission.join
                stream.metrics.score(
                    stream.ready, map(add, repeat(start), stream.offsets),
                    stream.ends, stream.skipped_indices, stream._read_ahead,
                )
        streams = [admission.stream for admission in joined]
        if rec is not None:
            rec.run_end(streams, time, self.rounds_run)
        metrics = {stream.request_id: stream.metrics for stream in streams}
        for work in after:
            metrics.update(work.results())
        return metrics

    def _run_round(
        self,
        time: float,
        active: Sequence[StreamState],
        k: int,
        round_number: int,
    ) -> Tuple[float, bool, bool, float]:
        """One round's turns: ``(time after them, whether one served,
        whether one ended its plan, earliest wake of a stream playing on)``."""
        progressed = finished = False
        round_start = time
        #: Tightest Eq.-11 budget (k × smallest positive duration) of a stream
        #: *served* this round; besteffort.round_budget's is over all *active*.
        budget = soonest = float("inf")
        rec = self._rec
        recorded = rec is not None
        if recorded:
            rec.round_begin(len(active))
        read, faulty = self.drive.read_slot, self.drive.injector is not None
        for stream in active:
            wake = stream._wake
            if time < wake:
                # A buffer a turn filled has no room before its wake.
                if wake < soonest:
                    soonest = wake
                continue
            stream_k = stream.k_override or k
            # Buffer regulation: never exceed display-subsystem capacity.
            # The turn's one consumption answer, blocks played out by now;
            # past its wake a buffer has room, so the quota is >= 1.
            ends, ready = stream.ends, stream.ready
            count = bisect_right(ends, time)
            room = stream.buffer_capacity - len(ready) + count
            quota = room if room < stream_k else stream_k
            stream_start = time
            fetches, first = stream.fetches, stream.next_fetch
            slots, bits, durations = fetches.slots, fetches.bits, fetches.durations
            last, stop = len(slots), first + quota
            if stop > last:
                stop = last
            # A block the recorder samples (it keeps report_at >= first), or
            # a drive that can fault, takes the turn off the bare read.
            careful = faulty or recorded and stream.report_at < stop
            # Each landed block's play-out end is folded once: as it
            # lands, once the clock runs.
            start = stream.clock_start
            if start is not None:
                end = ends[-1]
            index = first   # < stop: only unfinished streams are visited
            while True:
                slot = slots[index]
                if careful:
                    time = self._fetch_block(stream, index, time, round_number)
                elif slot is not None:
                    time += read(slot, bits[index])
                ready.append(time)
                if start is not None:
                    end = max(end, time) + durations[index]
                    ends.append(end)
                index += 1
                if index == stop:
                    break
            stream.next_fetch = stop
            progressed = True
            # Playback starts once the anti-jitter read-ahead — the first
            # k-block service, capped by what the display buffer can
            # actually hold — is on board; its ends fold from there.
            started = start is None and len(ready) >= min(
                stream_k, stream.buffer_capacity, last
            )
            if started:
                stream.clock_start = end = time
                stream._read_ahead = len(ready)
                for landed, duration in zip(ready, durations):
                    end = max(end, landed) + duration
                    ends.append(end)
            if quota == room:
                # The turn filled the buffer as of its consumption answer: a
                # slot frees when block `count` plays out.  One that did so
                # during the reads leaves a past wake, as a buffer with room.
                stream._wake = wake = ends[count]
            if stop == last:
                finished = True
            elif wake < soonest:   # one with room left has a past wake
                soonest = wake
            if recorded:
                stream.turn_cost += time - stream_start
                if 0.0 < stream_k * stream.duration_floor < budget:
                    budget = stream_k * stream.duration_floor
        if recorded:
            rec.round_served(round_start, time, budget)
        return time, progressed, finished, soonest

    def _fetch_block(
        self,
        stream: StreamState,
        index: int,
        time: float,
        round_number: int,
    ) -> float:
        """Block *index* through fault recovery; returns when it landed.

        The block the recorder samples (``stream.report_at``) is reported;
        with a span, the read itself is traced — the drive and cache report
        their accesses, and fault recovery its retries and skips, as
        children of it.  A block whose data never arrived is a skip.
        """
        slot, rec = stream.fetches.slots[index], self._rec
        sampled = index == stream.report_at
        span = None
        if sampled:
            span = rec.block_begin(stream, index, time, round_number)
        ok = True
        if slot is not None:
            deadline = stream.clock_start
            if deadline is not None:
                deadline += stream.offsets[len(stream.ready)]
            try:
                elapsed, ok = read_with_recovery(
                    self.drive, slot, stream.fetches.bits[index],
                    self.recovery, now=time, deadline=deadline, rec=rec,
                    parent=span,
                )
            except HeadFailureError as fault:
                # Keep the first head failure and fire the degrade hook.
                if self.head_failure is None:
                    self.head_failure = fault
                    if self.on_head_failure is not None:
                        self.on_head_failure(fault)
                elapsed, ok = fault.elapsed, False
            time += elapsed
            if not ok:
                stream.skipped_indices.add(len(stream.ready))
        if sampled:
            rec.block_end(stream, index, span, time, not ok)
        return time
