"""Round-robin servicing of multiple requests (§3.4).

"In order to service multiple requests simultaneously, the file system
proceeds in rounds.  In each round, it multiplexes among the media block
transfers of the n requests", reading k consecutive blocks per request
before switching; switching costs a real head movement (bounded by the
maximum seek).

:class:`RoundRobinService` replays any number of playback plans through
one simulated drive under a per-round k schedule, scoring continuity per
request.  It supports:

* mid-run admissions (new streams joining at a chosen round) with either
  the paper's transition-safe step-of-1 k growth or a naive jump — the
  E3 experiment's comparison;
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

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.disk.drive import SimulatedDrive
from repro.errors import HeadFailureError, ParameterError
from repro.faults.recovery import RecoveryPolicy, read_with_recovery
from repro.obs.recorder import recorder_for
from repro.rope.server import BlockFetch, FetchColumns
from repro.sim.metrics import ContinuityMetrics, consumed_prefix
from repro.sim.trace import Tracer

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
    The one fact the loop adds per block is ``ready[i]``, when block i
    landed; §3.1's continuity is scored from that column once the run
    is over (:meth:`~repro.sim.metrics.ContinuityMetrics.score`).
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
    #: Delivery indexes whose data never arrived (fault-recovery skips);
    #: the playback timeline still advances over them (the glitch).
    skipped_indices: Set[int] = field(default_factory=set)
    #: Causal-trace context: the server-side root span (or wire dict)
    #: this stream's service spans continue, if any.
    trace: object = None
    #: Next block index whose begin/end the service recorder wants
    #: reported (it sets and advances this; -1: none).
    report_at: int = -1
    #: Consumption cursor: blocks fully played as of the last query, and
    #: the playback clock right after the last consumed block.  Block end
    #: times are non-decreasing, so the cursor only ever moves forward
    #: while query times are monotone — the service loop's case — making
    #: every consumption query O(1) amortized over a stream's lifetime.
    _consumed_count: int = field(default=0, init=False, repr=False)
    _consumed_end: float = field(default=0.0, init=False, repr=False)
    #: Blocks on board when the playback clock started (the anti-jitter
    #: read-ahead): the buffer high-water counts the ones landing after.
    _read_ahead: int = field(default=0, init=False, repr=False)
    #: :attr:`duration_floor` once computed (negative: not yet).  A plain
    #: field, not ``functools.cached_property``: that writes through
    #: ``__dict__``, which materializes the instance dict and slows every
    #: attribute load the hot loop makes on the stream afterwards.
    _duration_floor: float = field(default=-1.0, init=False, repr=False)

    def __post_init__(self) -> None:
        self.metrics.request_id = self.request_id
        self.fetches = FetchColumns.of(self.fetches)
        self.offsets = list(accumulate(self.fetches.durations, initial=0.0))
        if self.buffer_capacity < 1:
            raise ParameterError(
                f"buffer_capacity must be >= 1, got {self.buffer_capacity}"
            )

    @property
    def finished(self) -> bool:
        """True when every block has been delivered."""
        # The slot list's len, not FetchColumns.__len__: the loop asks
        # twice per stream per round.
        return self.next_fetch >= len(self.fetches.slots)

    @property
    def duration_floor(self) -> float:
        """Smallest positive block duration in the fetch plan — the T_i
        of Eq. (11)'s ``k_i * T_i`` budget — or 0.0 when there is none
        (computed once: the plan never changes)."""
        floor = self._duration_floor
        if floor < 0.0:
            durations = self.fetches.durations
            floor = min(durations, default=0.0)
            if floor <= 0.0:
                # Only plans with zero-length (silence) blocks pay the filter.
                floor = min((d for d in durations if d > 0.0), default=0.0)
            self._duration_floor = floor
        return floor

    def _consume_state(self, now: float) -> Tuple[int, float]:
        """``(consumed count, playback clock after them)`` at *now*.

        Advances the cached cursor forward when *now* has not moved
        backwards; a query earlier than the last consumed block's end
        (never issued by the service loop) falls back to the reference
        rescan without disturbing the cursor.
        """
        if self.clock_start is None:
            return 0, 0.0
        count = self._consumed_count
        ready, durations = self.ready, self.fetches.durations
        if count and now < self._consumed_end:
            return consumed_prefix(ready, durations, self.clock_start, now)
        elapsed = self._consumed_end if count else self.clock_start
        total = len(ready)
        while count < total:
            end = max(elapsed, ready[count]) + durations[count]
            if end > now:
                break
            count += 1
            elapsed = end
        if count != self._consumed_count:
            self._consumed_count = count
            self._consumed_end = elapsed
        return count, elapsed

    def consumed_at(self, now: float) -> int:
        """Blocks whose playback has completed by *now*."""
        return self._consume_state(now)[0]

    def buffered_at(self, now: float) -> int:
        """Blocks sitting in the display buffer at *now*."""
        return len(self.ready) - self._consume_state(now)[0]

    def next_consumption_time(self, now: float) -> float:
        """When the next buffered block finishes playing (inf if never).

        Used by the service loop to advance time when every stream's
        buffer is full — consumption is the only thing that frees space.
        """
        if self.clock_start is None:
            return float("inf")
        count, elapsed = self._consume_state(now)
        if count >= len(self.ready):
            return float("inf")
        return max(elapsed, self.ready[count]) + self.fetches.durations[count]


@dataclass(frozen=True)
class Admission:
    """A stream joining the service at the start of a given round."""

    round_number: int
    stream: StreamState


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
    tracer:
        Optional :class:`~repro.sim.trace.Tracer` event log.
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
        :class:`~repro.obs.recorder.ServiceRecorder` built from *obs* and
        *tracer*; with neither there is no recorder and every report
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
        tracer: Optional[Tracer] = None,
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
        self._rec = recorder_for(obs, "loop", tracer)

    def run(
        self,
        initial: Sequence[StreamState],
        admissions: Sequence[Admission] = (),
        max_rounds: int = 100_000,
    ) -> Dict[str, ContinuityMetrics]:
        """Service all streams to completion; returns metrics per request."""
        time = 0.0
        active: List[StreamState] = list(initial)
        order, after = self.order, self.after_turns
        never = float("inf")
        rec = self._rec
        if rec is not None:
            for stream in active:
                rec.stream_opened(stream, time)
        pending = sorted(admissions, key=lambda a: a.round_number)
        next_pending = 0
        round_number = 0
        rounds_before = self.rounds_run
        while True:
            while (
                next_pending < len(pending)
                and pending[next_pending].round_number <= round_number
            ):
                admitted = pending[next_pending]
                next_pending += 1
                active.append(admitted.stream)
                if rec is not None:
                    rec.stream_opened(admitted.stream, time, round_number)
            # Compact finished streams out in place, preserving order.
            write = 0
            for stream in active:
                if not stream.finished:
                    active[write] = stream
                    write += 1
            if write != len(active):
                del active[write:]
            if not active and all(work.due == never for work in after):
                if next_pending >= len(pending):
                    break
                # Nothing happens until the next admission: go to its round.
                round_number = pending[next_pending].round_number
                continue
            k = self.k_schedule(round_number, len(active))
            if k < 1:
                raise ParameterError(
                    f"k schedule returned {k} for round {round_number}"
                )
            round_start = time
            visit = active
            if order is not None:
                visit = order(self.drive, active, round_number)
            time, progressed = self._run_round(time, visit, k, round_number)
            if after:   # guarded: a request-path round pays nothing for it
                for work in after:
                    time, served = work.serve(self, time, round_start, active, k)
                    progressed = progressed or served
            if not progressed:
                # Every buffer was full and no after-turn work due: idle
                # until consumption frees one or work (a capture) falls due.
                waits = [stream.next_consumption_time(time) for stream in active]
                if after:
                    waits += [work.due for work in after]
                wake = min(waits)
                if wake == never or wake <= time:
                    raise ParameterError(
                        "service deadlocked: all buffers full and no "
                        "playback consuming them"
                    )
                time = wake
            round_number += 1
            self.rounds_run += 1
            if rec is not None:
                rec.round_end(time, round_number)
            if self.rounds_run - rounds_before > max_rounds:
                raise ParameterError(
                    f"exceeded {max_rounds} rounds; k schedule likely "
                    "starves a stream"
                )
        streams = list(initial) + [a.stream for a in admissions]
        for stream in streams:
            start = stream.clock_start
            if start is not None:
                stream.metrics.startup_latency = start
                stream.metrics.score(
                    stream.ready, (start + due for due in stream.offsets),
                    stream.fetches.durations, start,
                    stream.skipped_indices, stream._read_ahead,
                )
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
    ) -> Tuple[float, bool]:
        progressed = False
        round_start = time
        #: Tightest Eq.-11 budget among streams *served* this round:
        #: min of (stream's k × its smallest positive block duration).
        #: besteffort.round_budget is the same min over all of *active*.
        budget = float("inf")
        rec = self._rec
        #: Whether the recorder also wants each turn's begin / end
        #: reported (someone consumes them: a trace log, the profiler).
        turn_begins = turn_ends = False
        if rec is not None:
            turn_begins, turn_ends = rec.round_begin(len(active))
        for stream in active:
            if stream.finished:
                continue
            stream_k = stream.k_override if stream.k_override else k
            # Buffer regulation: never exceed display-subsystem capacity.
            room = stream.buffer_capacity - stream.buffered_at(time)
            quota = min(stream_k, max(0, room))
            if turn_begins:
                rec.turn_begin(stream, time, round_number, quota)
            if quota == 0:
                continue
            stream_start = time
            slots, ready = stream.fetches.slots, stream.ready
            index = stream.next_fetch
            stop = min(index + quota, len(slots))
            delivered = stop - index
            while index < stop:
                has_slot = slots[index] is not None
                sampled = index == stream.report_at
                span = None
                if sampled:
                    span = rec.block_begin(
                        stream, index, time, round_number, has_slot
                    )
                skipped = False
                if has_slot:
                    time, skipped = self._fetch_block(
                        stream, index, time, span
                    )
                    if skipped:
                        stream.skipped_indices.add(len(ready))
                ready.append(time)
                if sampled:
                    rec.block_end(stream, index, span, time, skipped)
                index += 1
            stream.next_fetch = stop
            progressed = True
            # Playback starts once the anti-jitter read-ahead — the first
            # k-block service, capped by what the display buffer can
            # actually hold — is on board.
            threshold = min(stream_k, stream.buffer_capacity, len(slots))
            started = stream.clock_start is None and len(ready) >= threshold
            if started:
                stream.clock_start = time
                stream._read_ahead = len(ready)
            if turn_ends:
                rec.turn_end(
                    stream, time, time - stream_start, delivered, started
                )
            if rec is not None:
                floor = stream._duration_floor
                if floor < 0.0:
                    floor = stream.duration_floor
                if 0.0 < stream_k * floor < budget:
                    budget = stream_k * floor
        if rec is not None:
            rec.round_served(round_start, time, budget)
        return time, progressed

    def _fetch_block(
        self,
        stream: StreamState,
        index: int,
        time: float,
        span=None,
    ) -> Tuple[float, bool]:
        """Read block *index* with fault recovery; returns (time, skipped).

        With *span* (the sampled block's span from the recorder) the read
        itself is traced — the drive and cache report their accesses, and
        fault recovery its retries and skips, as children of it.
        """
        columns = stream.fetches
        slot, bits = columns.slots[index], columns.bits[index]
        if span is None and self.drive.injector is None:
            # Healthy and unsampled: the zero-overhead path.
            return time + self.drive.read_slot(slot, bits), False
        deadline = stream.clock_start
        if deadline is not None:
            deadline += stream.offsets[len(stream.ready)]
        try:
            elapsed, ok = read_with_recovery(
                self.drive, slot, bits, self.recovery,
                now=time,
                deadline=deadline,
                rec=self._rec,
                parent=span,
            )
        except HeadFailureError as fault:
            self._note_head_failure(fault)
            return time + fault.elapsed, True
        return time + elapsed, not ok

    def _note_head_failure(self, fault: HeadFailureError) -> None:
        """Keep the (first) head failure and fire the degrade hook."""
        if self.head_failure is not None:
            return
        self.head_failure = fault
        if self.on_head_failure is not None:
            self.on_head_failure(fault)
