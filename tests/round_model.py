"""An executable model of §3.4 round service: the loop's oracle.

"In order to service multiple requests simultaneously, the file system
proceeds in rounds.  In each round, it multiplexes among the media block
transfers of the n requests", reading up to k blocks per request before
switching, never more than the request's display buffer can hold.  This
module states that in the plainest terms it can, quadratic time and
all, so that the optimised loop (``repro.service.rounds``) can be
checked against it.  It imports nothing from ``repro``: a stream is
plain data, a read's cost is a function of (previous slot, slot), and
every quantity is recomputed from scratch whenever it is needed.

The rules, one per line of :func:`serve`:

* A stream joins at a modeled time: a round starts by admitting every
  stream whose join time it has reached, in join order, then forgetting
  every stream that has read its whole plan.  With no stream left, no
  after-turn work due and one still to join, time moves on to its join:
  no round is served or counted between.
* k comes from the schedule ``k(round number, streams active)``; a
  stream's ``k_override`` replaces it.  A k that is not an int >= 1 is
  an error.
* The active streams take their turns in arrival order, or in the order
  an *order* policy gives.  A stream takes a turn if its buffer has
  room now: room = capacity − blocks landed + blocks played out.  It
  reads ``min(room, k)`` blocks (fewer at its plan's end), one after the
  other on the one drive; a block with no slot (silence) costs nothing.
* A stream's playback clock starts when a turn ends with
  ``min(k, capacity, plan length)`` blocks landed.  Block i then ends
  playing at ``max(end of block i−1, landed i) + duration i`` (block 0
  counts from the clock's start): §3.1's cascade.
* After the turns, each after-turn work item (RECORD writes, best-effort
  text) is served in list order through its own ``serve`` / ``due`` /
  ``results``; the model says only how they compose with the turns.
* A round ends with its idle wait: time moves on to the earliest moment
  some stream still reading has room (now, if one has), the next stream
  joins or some work item falls due, if that is later.  A round in which
  no stream had room and no work item served, with nothing to wait for,
  is a deadlock.  More than *max_rounds* rounds is an error.

Nothing here faults, so no block is ever skipped; :func:`score` states
§3.1's continuity score of any stream's columns, skips included.
"""

from dataclasses import dataclass, field
from typing import Callable, Collection, Dict, List, Optional, Sequence

NEVER = float("inf")


class ModelError(Exception):
    """The service cannot go on; ``args[0]`` says why: ``"k"`` (the
    schedule gave a bad k; ``args[1]`` is the round), ``"deadlock"`` or
    ``"max_rounds"``."""


@dataclass
class Stream:
    """One request: its plan as columns, its buffer and its k."""

    request_id: str
    slots: Sequence[Optional[int]]
    durations: Sequence[float]
    capacity: int
    k_override: Optional[int] = None
    #: The modeled time it joins at; None: there from the start.
    joins: Optional[float] = None

    @property
    def duration_floor(self) -> float:
        """The plan's shortest positive block duration (0.0: none): the
        T_i a round's Eq.-11 budget ``k_i · T_i`` is taken over."""
        return min((d for d in self.durations if d > 0.0), default=0.0)


@dataclass
class Served:
    """What the model says happened to one stream."""

    ready: List[float] = field(default_factory=list)
    clock_start: Optional[float] = None
    #: Blocks landed when the clock started (the anti-jitter read-ahead).
    read_ahead: int = 0
    #: Each turn's cost, in turn order: when it ended less when it began.
    turns: List[float] = field(default_factory=list)
    #: The modeled time the stream joined at (0.0: from the start).
    join: float = 0.0

    def ends(self, durations: Sequence[float]) -> List[float]:
        """When each landed block finished playing (none before the
        clock starts)."""
        if self.clock_start is None:
            return []
        ends, end = [], self.clock_start
        for landed, duration in zip(self.ready, durations):
            end = max(end, landed) + duration
            ends.append(end)
        return ends


@dataclass
class Outcome:
    """The whole run: each stream's columns, the rounds counted, the
    active count of each round, and how many rounds ended with an idle
    wait."""

    served: Dict[str, Served]
    rounds_run: int
    active_per_round: List[int]
    waits: int


def _played(stream: Stream, served: Served, time: float) -> int:
    """Blocks of *stream* played out by *time*."""
    return sum(1 for end in served.ends(stream.durations) if end <= time)


def _room(stream: Stream, served: Served, time: float) -> int:
    return stream.capacity - len(served.ready) + _played(stream, served, time)


def _next_room(stream: Stream, served: Served, time: float) -> float:
    """When *stream*'s buffer next has room: *time* if it has some, else
    the end of the block whose play-out brings the blocks on board below
    capacity."""
    if _room(stream, served, time) > 0:
        return time
    ends = served.ends(stream.durations)
    index = len(served.ready) - stream.capacity
    return ends[index] if 0 <= index < len(ends) else NEVER


def serve(
    streams: Sequence[Stream],
    k_schedule: Callable[[int, int], int],
    cost: Callable[[Optional[int], int], float],
    max_rounds: int = 100_000,
    order: Optional[Callable] = None,
    after: Sequence = (),
    host: object = None,
) -> Outcome:
    """Serve *streams* to completion by the rules above.

    *order*, if given, is ``(round number, active streams, served) ->
    the same streams in visiting order``.  Each of *after* is served as
    ``serve(host, time, round start, active streams, k) -> (time,
    served)``, with *host* passed through as the loop passes itself.
    """
    served = {s.request_id: Served(join=s.joins or 0.0) for s in streams}
    waiting = sorted(
        (s for s in streams if s.joins is not None), key=lambda s: s.joins
    )
    active = [s for s in streams if s.joins is None]
    time, head, round_number, rounds_run, waits = 0.0, None, 0, 0, 0
    active_per_round: List[int] = []
    while True:
        while waiting and waiting[0].joins <= time:
            active.append(waiting.pop(0))
        active = [
            s for s in active if len(served[s.request_id].ready) < len(s.slots)
        ]
        if not active and all(work.due == NEVER for work in after):
            if not waiting:
                break
            time = waiting[0].joins
            continue
        k = k_schedule(round_number, len(active))
        if not isinstance(k, int) or k < 1:
            raise ModelError("k", round_number)
        active_per_round.append(len(active))
        round_start, idle = time, True
        for stream in order(round_number, active, served) if order else active:
            mine = served[stream.request_id]
            room = _room(stream, mine, time)
            if room < 1:
                continue
            idle = False
            stream_k = stream.k_override or k
            began = time
            first = len(mine.ready)
            for index in range(first, min(first + min(room, stream_k),
                                          len(stream.slots))):
                slot = stream.slots[index]
                if slot is not None:
                    time += cost(head, slot)
                    head = slot
                mine.ready.append(time)
            mine.turns.append(time - began)
            if mine.clock_start is None and len(mine.ready) >= min(
                stream_k, stream.capacity, len(stream.slots)
            ):
                mine.clock_start, mine.read_ahead = time, len(mine.ready)
        for work in after:
            time, progressed = work.serve(host, time, round_start, active, k)
            idle = idle and not progressed
        wake = min(
            [_next_room(s, served[s.request_id], time) for s in active
             if len(served[s.request_id].ready) < len(s.slots)]
            + [waiting[0].joins if waiting else NEVER]
            + [work.due for work in after],
        )
        if time < wake < NEVER:
            waits += 1
            time = wake
        elif idle and wake == NEVER:
            raise ModelError("deadlock")
        round_number += 1
        rounds_run += 1
        if rounds_run > max_rounds:
            raise ModelError("max_rounds")
    return Outcome(served, rounds_run, active_per_round, waits)


def turn_cost(served: Served, start: float = 0.0) -> float:
    """The turns' costs added onto *start* one by one, in turn order: what
    the cost profile attributes to the stream after what it held."""
    total = start
    for cost in served.turns:
        total += cost
    return total


@dataclass
class Score:
    """§3.1's verdict on one playback (the fields of a metrics summary)."""

    delivered: int = 0
    misses: int = 0
    skips: int = 0
    total_lateness: float = 0.0
    max_lateness: float = 0.0
    startup: float = 0.0
    high_water: int = 0
    #: Signed lateness of each delivered block, in playback order.
    lateness: List[float] = field(default_factory=list)


def score(
    served: Served, durations: Sequence[float], skipped: Collection[int] = ()
) -> Score:
    """Score *served*'s columns against §3.1's deadlines.

    Block i is due at ``clock start + offset i``, the offsets folded from
    0.0 over the durations before it.  A block landing after its deadline
    is a miss, by how late it was; a skipped block is a miss however
    early recovery gave up on it.  The buffer high-water is sampled as
    each block after the read-ahead lands: blocks 0..i landed, less those
    whose play-out ended by then.  Start-up is measured from the join.
    Nothing is scored before the clock starts.
    """
    result = Score()
    start = served.clock_start
    if start is None:
        return result
    result.startup = start - served.join
    ends, offset = served.ends(durations), 0.0
    for index, landed in enumerate(served.ready):
        late = landed - (start + offset)
        offset += durations[index]
        if index in skipped:
            result.skips += 1
            result.misses += 1
        else:
            result.delivered += 1
            result.lateness.append(late)
            result.misses += late > 0
        if late > 0:
            result.total_lateness += late
            result.max_lateness = max(result.max_lateness, late)
        if index >= served.read_ahead:
            played = sum(1 for end in ends[:index + 1] if end <= landed)
            result.high_water = max(result.high_water, index + 1 - played)
    return result
