"""Concurrent storage *and* retrieval in one service loop (§3, §3.4).

"the file system can only accept a limited number of requests without
violating the continuity requirements of any of the requests" — and those
requests are storage or retrieval alike: §3's analysis treats recording
and playback symmetrically (disk write time ≈ read time, capture time ≈
display time), and §3.4's admission control covers "n active media
storage/retrieval requests".

:class:`RecordStream` realizes that as after-turn work of the one round
loop (``RoundRobinService(..., after_turns=[record, ...])``): once a
round's playback turns are done every recording stream gets its k
blocks.  A recording stream's capture hardware produces one block per
block period into a bounded staging buffer; the service must write each
block out before the buffer overruns (block j's deadline is when block
``j + capacity`` finishes capturing), which is the storage-side
continuity requirement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ParameterError, check_count
from repro.sim.metrics import ContinuityMetrics

__all__ = ["RecordStream"]


@dataclass
class RecordStream:
    """One RECORD request's progress through its placement.

    Attributes
    ----------
    request_id:
        Identifier for reporting.
    slots:
        Target disk slots in recording order (the strand's placement).
    block_period:
        Seconds of media per block (η/R) — capture produces one block per
        period, starting at time 0.
    staging_capacity:
        Capture-device staging buffers; block j must be written before
        block ``j + staging_capacity`` finishes capturing.
    k_override:
        Per-request k_i (general Eq.-11 admission), else the global k.
    block_bits:
        Payload bits written per block (None = full device block).
    """

    request_id: str
    slots: Sequence[int]
    block_period: float
    staging_capacity: int = 2
    k_override: Optional[int] = None
    block_bits: Optional[float] = None
    next_block: int = 0
    metrics: ContinuityMetrics = field(default_factory=ContinuityMetrics)
    #: When each block's write completed, in recording order.
    written: List[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.block_period <= 0:
            raise ParameterError(
                f"block_period must be positive, got {self.block_period}"
            )
        check_count("staging_capacity", self.staging_capacity)
        if self.k_override is not None:
            check_count("k_override", self.k_override)
        self.metrics.request_id = self.request_id

    @property
    def finished(self) -> bool:
        """True when every block has been written."""
        return self.next_block >= len(self.slots)

    def captured_at(self, now: float) -> int:
        """Blocks fully captured by *now* (one per period from t = 0)."""
        return min(len(self.slots), int(now / self.block_period))

    def deadline_of(self, block_number: int) -> float:
        """When the staging buffer overruns unless this block is written."""
        return (
            block_number + 1 + self.staging_capacity
        ) * self.block_period

    def retire(self, now: float) -> None:
        """Score the next block as written out at *now* — its deadline,
        and the staging high-water mark (blocks captured but not yet
        retired when this write completes) — and move past it."""
        number = self.next_block
        self.written.append(now)
        self.metrics.record_delivery(now, self.deadline_of(number))
        self.metrics.buffer_high_water = max(
            self.metrics.buffer_high_water,
            self.captured_at(now) - number - 1,
        )
        self.next_block = number + 1

    @property
    def due(self) -> float:
        """When the next block finishes capturing (inf once all are
        written): the loop runs until then and never idles past it."""
        if self.finished:
            return float("inf")
        return (self.next_block + 1) * self.block_period

    def results(self) -> Dict[str, ContinuityMetrics]:
        """This request's staging-buffer continuity, by request id."""
        return {self.request_id: self.metrics}

    def serve(
        self, service, time: float, round_start: float, active, k: int
    ) -> Tuple[float, bool]:
        """Write this round's k blocks — only blocks that capture has
        actually produced: the disk cannot write media that does not
        exist yet (the loop idles to :attr:`due` when nothing else can
        move, which is recording's analogue of buffer regulation)."""
        quota = self.k_override or k
        written = 0
        while written < quota and self.due <= time:
            time += service.drive.write_slot(
                self.slots[self.next_block], self.block_bits
            )
            self.retire(time)
            written += 1
        return time, written > 0
