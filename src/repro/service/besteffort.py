"""Best-effort text I/O inside a continuous-media service loop (§3).

"A common file server can, however, integrate the functions of both a
conventional text file server and a multimedia file server by employing
constrained block allocation for (real-time) media strands, and using the
gaps between successive blocks of a media strand to store text files."

Storing text in the gaps is half the story (:class:`repro.disk.GapFiller`
does that); the other half is *serving* it without breaking continuity.
:class:`UnifiedService` extends the §3.4 round loop with a best-effort
queue: after each round's real-time transfers complete, the slack before
the earliest media deadline is spent on text-block reads — each read is
admitted into the slack only if its worst-case time (current-position
seek + transfer) still fits.  Media requests therefore keep their zero-
miss guarantee by construction, and text throughput becomes a measure of
the media load's leftover bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.disk.drive import SimulatedDrive
from repro.service.rounds import RoundRobinService, StreamState
from repro.sim.trace import Tracer

__all__ = ["TextRequest", "UnifiedService"]


@dataclass
class TextRequest:
    """A conventional (non-real-time) read: some text blocks, any time."""

    request_id: str
    slots: Sequence[int]
    served: int = 0
    completion_time: Optional[float] = None

    @property
    def finished(self) -> bool:
        """True when every block has been read."""
        return self.served >= len(self.slots)

    @property
    def remaining(self) -> int:
        """Blocks still queued."""
        return len(self.slots) - self.served


class UnifiedService(RoundRobinService):
    """Round service with a best-effort text queue in the slack.

    Parameters
    ----------
    drive, k_schedule, tracer:
        As for :class:`RoundRobinService`.
    text_requests:
        Conventional reads to serve opportunistically, FIFO.
    """

    def __init__(
        self,
        drive: SimulatedDrive,
        k_schedule: Callable[[int, int], int],
        text_requests: Sequence[TextRequest] = (),
        tracer: Optional[Tracer] = None,
    ):
        super().__init__(drive, k_schedule, tracer)
        self.text_requests: List[TextRequest] = list(text_requests)
        self.text_blocks_served = 0
        self.text_time_used = 0.0

    @staticmethod
    def _round_budget(active: Sequence[StreamState], k: int) -> float:
        """Eq. (11)'s right-hand side: ``min_i k_i·T_i`` over the active
        streams — the whole round (media + text) must fit inside it for
        every buffer to survive to the next round.  Streams carrying a
        per-request ``k_override`` (the general Eq.-11 form) contribute
        their own k_i; the others use the round's global k."""
        budget = float("inf")
        for stream in active:
            floor = stream.duration_floor
            if floor > 0.0:
                stream_k = stream.k_override if stream.k_override else k
                budget = min(budget, stream_k * floor)
        if budget == float("inf"):
            return 0.0
        return budget

    def _worst_case_text_read(self, slot: int) -> float:
        """Upper bound on one text read from the current head position."""
        distance = abs(
            self.drive.cylinder_of(slot) - self.drive.head_cylinder
        )
        return (
            self.drive.seek_model.seek_time(distance)
            + self.drive.rotation.max_latency
            + self.drive.transfer_time(self.drive.block_bits)
        )

    def _run_round(
        self,
        time: float,
        active: Sequence[StreamState],
        k: int,
        round_number: int,
    ) -> Tuple[float, bool]:
        round_start = time
        time, progressed = super()._run_round(time, active, k, round_number)
        budget = self._round_budget(active, k)
        time = self._serve_text_in_slack(
            time, round_start, budget, round_number
        )
        return time, progressed

    def _serve_text_in_slack(
        self,
        time: float,
        round_start: float,
        budget: float,
        round_number: int,
    ) -> float:
        """Spend the round's leftover Eq.-(11) budget on text reads.

        Media transfers took ``time − round_start`` of the k·γ budget;
        each text read is admitted only if its worst case still fits, so
        the whole round (media + text) respects the same bound the
        admission controller guaranteed — continuity is preserved by
        construction.
        """
        queue = [t for t in self.text_requests if not t.finished]
        if not queue or budget <= 0:
            return time
        deadline = round_start + budget
        for request in queue:
            while not request.finished:
                slot = request.slots[request.served]
                worst = self._worst_case_text_read(slot)
                if time + worst > deadline:
                    return time
                start = time
                time += self.drive.read_slot(slot)
                self.text_time_used += time - start
                request.served += 1
                self.text_blocks_served += 1
                if request.finished:
                    request.completion_time = time
                    if self._rec is not None:
                        self._rec.text_completed(
                            request.request_id, time, len(request.slots)
                        )
        return time

    def drain_text(self, start_time: float) -> float:
        """Serve any remaining text after media streams complete."""
        time = start_time
        for request in self.text_requests:
            while not request.finished:
                slot = request.slots[request.served]
                time += self.drive.read_slot(slot)
                request.served += 1
                self.text_blocks_served += 1
            if request.completion_time is None:
                request.completion_time = time
        return time
