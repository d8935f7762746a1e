"""An executable model of §3.4 round service: the loop's oracle.

"In order to service multiple requests simultaneously, the file system
proceeds in rounds.  In each round, it multiplexes among the media block
transfers of the n requests", reading up to k blocks per request before
switching, never more than the request's display buffer can hold.  This
module states that in the plainest terms it can, quadratic time and
all, so that the optimised loop (``repro.service.rounds``) can be
checked against it.  It imports nothing from ``repro``: a stream is
plain data, a read's cost is a pure function of (previous slot, slot),
and every quantity is recomputed from scratch whenever it is needed.

The rules, one per line of :func:`serve`:

* A round starts by admitting every stream whose join round has come,
  in join order, then forgetting every stream that has read its whole
  plan.  With no stream left and one still to join, the next round
  *number* is its join round: no round is served or counted between.
* k comes from the schedule ``k(round number, streams active)``; a
  stream's ``k_override`` replaces it.  A k that is not an int >= 1 is
  an error.
* Each active stream, in arrival order, takes a turn if its buffer has
  room now: room = capacity − blocks landed + blocks played out.  It
  reads ``min(room, k)`` blocks (fewer at its plan's end), one after the
  other on the one drive; a block with no slot (silence) costs nothing.
* A stream's playback clock starts when a turn ends with
  ``min(k, capacity, plan length)`` blocks landed.  Block i then ends
  playing at ``max(end of block i−1, landed i) + duration i`` (block 0
  counts from the clock's start): §3.1's cascade.
* A round in which no stream had room is idle: time moves on to the
  earliest moment some stream's buffer next frees a slot.  A round is
  counted either way, and more than *max_rounds* of them is an error.

Nothing here faults, so no block is ever skipped.
"""

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

NEVER = float("inf")


class ModelError(Exception):
    """The service cannot go on; ``args[0]`` says why: ``"k"`` (the
    schedule gave a bad k), ``"deadlock"`` or ``"max_rounds"``."""


@dataclass
class Stream:
    """One request: its plan as columns, its buffer and its k."""

    request_id: str
    slots: Sequence[Optional[int]]
    durations: Sequence[float]
    capacity: int
    k_override: Optional[int] = None
    #: The round it joins in; None: there from the start.
    joins: Optional[int] = None


@dataclass
class Served:
    """What the model says happened to one stream."""

    ready: List[float] = field(default_factory=list)
    clock_start: Optional[float] = None
    #: Each turn's cost, in turn order: when it ended less when it began.
    turns: List[float] = field(default_factory=list)

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
    """The whole run: each stream's columns, the rounds counted, and the
    active count of each round."""

    served: Dict[str, Served]
    rounds_run: int
    active_per_round: List[int]


def _played(stream: Stream, served: Served, time: float) -> int:
    """Blocks of *stream* played out by *time*."""
    return sum(1 for end in served.ends(stream.durations) if end <= time)


def _room(stream: Stream, served: Served, time: float) -> int:
    return stream.capacity - len(served.ready) + _played(stream, served, time)


def _frees_at(stream: Stream, served: Served) -> float:
    """When a full buffer next has room: the end of the block whose play-out
    brings the blocks on board below capacity."""
    ends = served.ends(stream.durations)
    index = len(served.ready) - stream.capacity
    return ends[index] if 0 <= index < len(ends) else NEVER


def serve(
    streams: Sequence[Stream],
    k_schedule: Callable[[int, int], int],
    cost: Callable[[Optional[int], int], float],
    max_rounds: int = 100_000,
) -> Outcome:
    """Serve *streams* to completion by the rules above."""
    served = {stream.request_id: Served() for stream in streams}
    waiting = sorted(
        (s for s in streams if s.joins is not None), key=lambda s: s.joins
    )
    active = [s for s in streams if s.joins is None]
    time, head, round_number, rounds_run = 0.0, None, 0, 0
    active_per_round: List[int] = []
    while True:
        while waiting and waiting[0].joins <= round_number:
            active.append(waiting.pop(0))
        active = [
            s for s in active if len(served[s.request_id].ready) < len(s.slots)
        ]
        if not active:
            if not waiting:
                break
            round_number = waiting[0].joins
            continue
        k = k_schedule(round_number, len(active))
        if not isinstance(k, int) or k < 1:
            raise ModelError("k")
        active_per_round.append(len(active))
        idle = True
        for stream in active:
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
                mine.clock_start = time
        if idle:
            wake = min(_frees_at(s, served[s.request_id]) for s in active)
            if wake == NEVER:
                raise ModelError("deadlock")
            time = max(time, wake)
        round_number += 1
        rounds_run += 1
        if rounds_run > max_rounds:
            raise ModelError("max_rounds")
    return Outcome(served, rounds_run, active_per_round)


def turn_cost(served: Served, start: float = 0.0) -> float:
    """The turns' costs added onto *start* one by one, in turn order: what
    the cost profile attributes to the stream after what it held."""
    total = start
    for cost in served.turns:
        total += cost
    return total
