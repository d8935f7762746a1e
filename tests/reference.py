"""The §3.1 playback fold and the §3.4 walked round loop, written out as
the references the fast paths are checked against.

Playback cascades over the delivery schedule: block j starts when its
data is ready and the previous block has finished, so consumption is a
running fold over ``(ready, duration)`` from the clock's start.  The
service loop keeps that fold as a column (``StreamState.ends``) and
answers consumption with one bisect of it; these rescan from the start
on every call.  :class:`WalkedRoundRobinService` is the round loop that
visits every stream in every round, idle or not.
"""

from bisect import bisect_right
from itertools import repeat
from operator import add, attrgetter
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import ParameterError
from repro.service.rounds import Admission, RoundRobinService, StreamState
from repro.sim.metrics import ContinuityMetrics

_wake_of = attrgetter("_wake")


def consumed_prefix(
    ready: Iterable[float],
    durations: Iterable[float],
    start: float,
    now: float,
) -> Tuple[int, float]:
    """Playback consumption at *now*: ``(blocks played, clock after them)``.

    With ``now = inf`` it is the whole fold — when the last block ends.
    """
    count = 0
    elapsed = start
    for landed, duration in zip(ready, durations):
        end = max(elapsed, landed) + duration
        if end > now:
            break
        count += 1
        elapsed = end
    return count, elapsed


def playout_ends(
    ready: Iterable[float], durations: Iterable[float], start: float
) -> List[float]:
    """When each landed block finished playing, clock started at *start*:
    the fold of :func:`consumed_prefix`, one entry per block."""
    ends, elapsed = [], start
    for landed, duration in zip(ready, durations):
        elapsed = max(elapsed, landed) + duration
        ends.append(elapsed)
    return ends


class WalkedRoundRobinService(RoundRobinService):
    """The §3.4 loop that walks every round: each idle round visits every
    stream to find its buffer full, then idles to the earliest stored
    wake, asked of every active stream; a served turn takes its quota and
    stop from ``min()`` and reads over a ``range``.  The fast loop counts
    an idle round it can prove without the pass; this is the path it
    replaced, kept as the reference it is compared against."""

    def run(
        self,
        initial: Sequence[StreamState],
        admissions: Sequence[Admission] = (),
        max_rounds: int = 100_000,
    ) -> Dict[str, ContinuityMetrics]:
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
        compact = True
        while True:
            while (
                next_pending < len(pending)
                and pending[next_pending].round_number <= round_number
            ):
                admitted = pending[next_pending]
                next_pending += 1
                active.append(admitted.stream)
                compact = True
                if rec is not None:
                    rec.stream_opened(admitted.stream, time, round_number)
            if compact:
                write = 0
                for stream in active:
                    if stream.next_fetch < len(stream.fetches.slots):
                        active[write] = stream
                        write += 1
                del active[write:]
            if not active and all(work.due == never for work in after):
                if next_pending >= len(pending):
                    break
                round_number = pending[next_pending].round_number
                continue
            k = self.k_schedule(round_number, len(active))
            if not isinstance(k, int) or k < 1:
                raise ParameterError(
                    f"k schedule returned {k!r} for round {round_number}"
                )
            round_start = time
            visit = active
            if order is not None:
                visit = order(self.drive, active, round_number)
            time, progressed, compact = self._run_round(
                time, visit, k, round_number
            )
            for work in after:
                time, served = work.serve(self, time, round_start, active, k)
                progressed = progressed or served
            if not progressed:
                wake = min(map(_wake_of, active), default=never)
                for work in after:
                    wake = min(wake, work.due)
                if wake == never:
                    raise ParameterError(
                        "service deadlocked: all buffers full and no "
                        "playback consuming them"
                    )
                time = max(time, wake)
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
                    stream.ready, map(add, repeat(start), stream.offsets),
                    stream.ends, stream.skipped_indices, stream._read_ahead,
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
    ) -> Tuple[float, bool, bool]:
        progressed = False
        round_start = time
        budget = float("inf")
        rec = self._rec
        turn_begins = rec is not None and rec.round_begin(len(active))
        read, faulty = self.drive.read_slot, self.drive.injector is not None
        finished = False
        for stream in active:
            if time < stream._wake:
                if turn_begins:
                    rec.turn_begin(stream, time, round_number, 0)
                continue
            stream_k = stream.k_override or k
            ends, ready = stream.ends, stream.ready
            count = bisect_right(ends, time)
            room = stream.buffer_capacity - len(ready) + count
            quota = min(stream_k, room)
            if turn_begins:
                rec.turn_begin(stream, time, round_number, quota)
            stream_start = time
            slots, durations = stream.fetches.slots, stream.fetches.durations
            first, bits = stream.next_fetch, stream.fetches.bits
            stop = min(first + quota, len(slots))
            careful = faulty or first <= stream.report_at < stop
            start = stream.clock_start
            if start is not None:
                end = ends[-1]
            for index in range(first, stop):
                slot = slots[index]
                if careful:
                    time = self._fetch_block(stream, index, time, round_number)
                elif slot is not None:
                    time += read(slot, bits[index])
                ready.append(time)
                if start is not None:
                    end = max(end, time) + durations[index]
                    ends.append(end)
            stream.next_fetch = stop
            progressed = True
            finished = finished or stop == len(slots)
            started = start is None and len(ready) >= min(
                stream_k, stream.buffer_capacity, len(slots)
            )
            if started:
                stream.clock_start = end = time
                stream._read_ahead = len(ready)
                for landed, duration in zip(ready, durations):
                    end = max(end, landed) + duration
                    ends.append(end)
            if quota == room:
                stream._wake = ends[count]
            if rec is not None:
                stream.turn_cost += time - stream_start
            if started and turn_begins:
                rec.playback_started(stream, time)
            if rec is not None and 0.0 < stream_k * stream.duration_floor < budget:
                budget = stream_k * stream.duration_floor
        if rec is not None:
            rec.round_served(round_start, time, budget)
        return time, progressed, finished
