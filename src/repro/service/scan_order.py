"""Seek-optimized request ordering within a service round (§6.2).

"The admission control algorithm that we have developed uses a
round-robin servicing of requests in the order in which they are
received, and assumes maximum separation between blocks while switching
between requests.  As a result, the estimates of the maximum number of
requests ... are pessimistic.  We are investigating algorithms for
servicing requests in the order that minimizes ... the separations
between blocks, thereby minimizing the overhead of switching."

:class:`ScanOrderService` implements that investigation: each round,
instead of the arrival-order rotation, requests are serviced in the order
of their next block's cylinder along the current head direction (the
elevator/SCAN discipline applied at request granularity).  Switch
overheads then approach a single sweep across the disk per round instead
of n potentially full-stroke seeks, and the measured per-request switch
cost β̂ feeds a *measured* capacity estimate that beats Eq. (17)'s
pessimistic one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.errors import ParameterError
from repro.service.rounds import RoundRobinService, StreamState

__all__ = ["ScanOrderService", "RoundTimeProbe", "measured_capacity"]


class ScanOrderService(RoundRobinService):
    """Round service with per-round SCAN ordering of requests.

    Identical semantics to :class:`RoundRobinService` — same k schedule,
    buffer regulation, deadline scoring — except that within each round
    the requests are visited in ascending cylinder order starting from
    the current head position (and the sweep direction alternates, the
    classic elevator), which minimizes inter-request switch seeks.
    """

    def _run_round(
        self,
        time: float,
        active: Sequence[StreamState],
        k: int,
        round_number: int,
    ) -> Tuple[float, bool]:
        ordered = self._scan_order(active, round_number)
        return super()._run_round(time, ordered, k, round_number)

    def _scan_order(
        self, active: Sequence[StreamState], round_number: int
    ) -> List[StreamState]:
        def next_cylinder(stream: StreamState) -> int:
            slots = stream.fetches.slots
            for index in range(stream.next_fetch, len(slots)):
                if slots[index] is not None:
                    return self.drive.cylinder_of(slots[index])
            return 0

        ascending = round_number % 2 == 0
        head = self.drive.head_cylinder
        keyed = [(next_cylinder(stream), stream) for stream in active]
        if ascending:
            ahead = sorted(
                (c, s.request_id, s) for c, s in keyed if c >= head
            )
            behind = sorted(
                ((c, s.request_id, s) for c, s in keyed if c < head),
                reverse=True,
            )
        else:
            ahead = sorted(
                ((c, s.request_id, s) for c, s in keyed if c <= head),
                reverse=True,
            )
            behind = sorted(
                (c, s.request_id, s) for c, s in keyed if c > head
            )
        return [stream for _c, _rid, stream in ahead + behind]


@dataclass
class RoundTimeProbe:
    """Measures per-round service times for capacity estimation."""

    durations: List[float]

    @property
    def mean(self) -> float:
        """Average round duration, seconds."""
        if not self.durations:
            return 0.0
        return sum(self.durations) / len(self.durations)

    @property
    def worst(self) -> float:
        """Longest observed round, seconds."""
        return max(self.durations, default=0.0)


def probe_round_times(
    service: RoundRobinService,
    streams: Sequence[StreamState],
) -> RoundTimeProbe:
    """Run *streams* to completion, recording each round's duration."""
    durations: List[float] = []
    original = service._run_round

    def instrumented(time, active, k, round_number):
        new_time, progressed = original(time, active, k, round_number)
        if progressed:
            durations.append(new_time - time)
        return new_time, progressed

    service._run_round = instrumented  # type: ignore[method-assign]
    try:
        service.run(list(streams))
    finally:
        service._run_round = original  # type: ignore[method-assign]
    return RoundTimeProbe(durations=durations)


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
