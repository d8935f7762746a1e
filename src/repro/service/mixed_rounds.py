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
    #: When each block's write completed: block j's is ``written[j]``.
    written: List[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.block_period <= 0:
            raise ParameterError(
                f"block_period must be positive, got {self.block_period}"
            )
        check_count("staging_capacity", self.staging_capacity)
        if self.k_override is not None:
            check_count("k_override", self.k_override)

    @property
    def next_block(self) -> int:
        """The next block to write (every one before it is written)."""
        return len(self.written)

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

    @property
    def due(self) -> float:
        """When the next block finishes capturing (inf once all are
        written): the loop runs until then and never idles past it."""
        if self.finished:
            return float("inf")
        return (self.next_block + 1) * self.block_period

    def results(self) -> Dict[str, ContinuityMetrics]:
        """This request's staging-buffer continuity, by request id: the
        ``written`` column scored against each block's overrun deadline,
        and the staging high-water (blocks captured but not yet written
        as each write completes)."""
        written = self.written
        metrics = ContinuityMetrics(
            request_id=self.request_id,
            buffer_high_water=max([0, *(
                self.captured_at(now) - number - 1
                for number, now in enumerate(written)
            )]),
        )
        metrics.score(
            written, map(self.deadline_of, range(len(written))), (),
            high_water_from=len(written),   # the staging rule, above
        )
        return {self.request_id: metrics}

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
            self.written.append(time)
            written += 1
        return time, written > 0
