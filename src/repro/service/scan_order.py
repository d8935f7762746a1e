"""Seek-optimized request ordering within a service round (§6.2).

"The admission control algorithm that we have developed uses a
round-robin servicing of requests in the order in which they are
received, and assumes maximum separation between blocks while switching
between requests.  As a result, the estimates of the maximum number of
requests ... are pessimistic.  We are investigating algorithms for
servicing requests in the order that minimizes ... the separations
between blocks, thereby minimizing the overhead of switching."

:func:`scan_order` implements that investigation as a visiting-order
policy of the one round loop (``RoundRobinService(..., order=scan_order)``):
each round, instead of the arrival-order rotation, requests are serviced
in the order of their next block's cylinder along the current head
direction (the elevator/SCAN discipline applied at request granularity).
Switch overheads then approach a single sweep across the disk per round
instead of n potentially full-stroke seeks, and the measured per-request
switch cost β̂ feeds a *measured* capacity estimate that beats Eq. (17)'s
pessimistic one.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from repro.disk.drive import SimulatedDrive
from repro.errors import ParameterError
from repro.service.rounds import StreamState

__all__ = ["scan_order", "measured_capacity"]


def scan_order(
    drive: SimulatedDrive, active: Sequence[StreamState], round_number: int
) -> List[StreamState]:
    """*active* in elevator order for this round: by the cylinder of
    each request's next stored block, sweeping away from the current
    head position first, the direction alternating round by round."""

    def next_cylinder(stream: StreamState) -> int:
        slots = stream.fetches.slots
        for index in range(stream.next_fetch, len(slots)):
            if slots[index] is not None:
                return drive.cylinder_of(slots[index])
        return 0

    head = drive.head_cylinder
    keyed = sorted(
        (next_cylinder(stream), stream.request_id, stream)
        for stream in active
    )
    low = [stream for c, _rid, stream in keyed if c < head]
    at = [stream for c, _rid, stream in keyed if c == head]
    high = [stream for c, _rid, stream in keyed if c > head]
    if round_number % 2 == 0:
        return at + high + low[::-1]
    return (low + at)[::-1] + high


def measured_capacity(
    block_playback: float,
    k: int,
    worst_round: float,
    n_probed: int,
) -> int:
    """Eq. (17) re-evaluated with a *measured* per-block cost β̂.

    The analytic bound plugs the disk's average seek into β (Eq. 13) —
    pessimistic, because constrained placement bounds intra-request
    seeks far tighter.  Probing n streams at k blocks/round measures the
    real amortized per-block service cost ``β̂ = worst_round / (n·k)``;
    the §6.2 "statistical" capacity is then ``⌈γ/β̂⌉ − 1``, exactly
    Eq. (17)'s form with β replaced by the measurement.
    """
    if n_probed < 1 or k < 1:
        raise ParameterError("n_probed and k must be >= 1")
    if worst_round <= 0:
        raise ParameterError("worst_round must be positive")
    beta_hat = worst_round / (n_probed * k)
    return max(1, math.ceil(block_playback / beta_hat) - 1)
