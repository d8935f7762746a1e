"""Best-effort text I/O inside a continuous-media service loop (§3).

"A common file server can, however, integrate the functions of both a
conventional text file server and a multimedia file server by employing
constrained block allocation for (real-time) media strands, and using the
gaps between successive blocks of a media strand to store text files."

Storing text in the gaps is half the story (:class:`repro.disk.GapFiller`
does that); the other half is *serving* it without breaking continuity.
:class:`TextQueue` is after-turn work of the one §3.4 round loop
(``RoundRobinService(..., after_turns=[queue])``): after each round's
real-time transfers complete, the slack before the earliest media
deadline is spent on text-block reads — each read is admitted into the
slack only if its worst-case time (current-position seek + transfer)
still fits.  Media requests therefore keep their zero-miss guarantee by
construction, and text throughput becomes a measure of the media load's
leftover bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.disk.drive import SimulatedDrive
from repro.service.rounds import StreamState

__all__ = ["TextRequest", "TextQueue"]


def round_budget(active: Sequence[StreamState], k: int) -> float:
    """Eq. (11)'s right-hand side: ``min_i k_i·T_i`` over *active* — the
    whole round (media + text) must fit inside it for every buffer to
    survive to the next round; 0.0 with no stream to bound it.  Streams
    carrying a per-request ``k_override`` (the general Eq.-11 form)
    contribute their own k_i; the others use the round's global k.

    Not the budget ``_run_round`` reports to the recorder, which is this
    min over the streams *served* that round: a stream that sat the round
    out behind a full buffer is in this min and not in that one.
    """
    return min(
        ((stream.k_override or k) * stream.duration_floor
         for stream in active if stream.duration_floor > 0.0),
        default=0.0,
    )


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


class TextQueue:
    """Conventional reads served opportunistically, FIFO, in the slack.

    Best effort: the queue never holds the loop (``due`` is inf) and
    never counts as a round's progress, so a round whose buffers were
    all full still idles to the next consumption; :meth:`drain` reads
    what the media load left unserved.
    """

    due = float("inf")

    def __init__(self, requests: Sequence[TextRequest] = ()):
        self.requests: List[TextRequest] = list(requests)
        self.blocks_served = 0
        self.time_used = 0.0

    def results(self) -> Dict:
        """Text has no continuity to score."""
        return {}

    @staticmethod
    def _worst_case_read(drive: SimulatedDrive, slot: int) -> float:
        """Upper bound on one text read from the current head position."""
        distance = abs(drive.cylinder_of(slot) - drive.head_cylinder)
        return (
            drive.seek_model.seek_time(distance)
            + drive.rotation.max_latency
            + drive.transfer_time(drive.block_bits)
        )

    def serve(
        self, service, time: float, round_start: float, active, k: int
    ) -> Tuple[float, bool]:
        """Spend the round's leftover Eq.-(11) budget on text reads.

        Media transfers took ``time − round_start`` of the k·γ budget;
        each text read is admitted only if its worst case still fits, so
        the whole round (media + text) respects the same bound the
        admission controller guaranteed — continuity is preserved by
        construction.
        """
        deadline = round_start + round_budget(active, k)
        return self._read(service.drive, time, deadline), False

    def drain(self, drive: SimulatedDrive, start_time: float) -> float:
        """Serve any remaining text after media streams complete."""
        return self._read(drive, start_time, float("inf"))

    def _read(self, drive, time: float, deadline: float) -> float:
        """Read queued blocks, FIFO, while the next one's worst case ends
        by *deadline*; returns the time the last read ended."""
        for request in self.requests:
            while not request.finished:
                slot = request.slots[request.served]
                if time + self._worst_case_read(drive, slot) > deadline:
                    return time
                start = time
                time += drive.read_slot(slot)
                self.time_used += time - start
                request.served += 1
                self.blocks_served += 1
                if request.finished:
                    request.completion_time = time
        return time
