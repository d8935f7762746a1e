"""Continuity metrics: what the simulation measures (§3.1's requirement).

"For continuous retrieval of media data, it is essential that media
information be available at the display device at or before the time of
its playback."  :class:`ContinuityMetrics` scores one request's playback
against that requirement: every block has a deadline (from the recording
rate) and an arrival time (from the simulated disk); a block arriving
after its deadline is a **continuity violation** ("glitch"), and its
lateness quantifies how audible/visible the glitch would be.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

__all__ = ["ContinuityMetrics"]


@dataclass
class ContinuityMetrics:
    """Deadline bookkeeping for one playback/recording request."""

    request_id: str = ""
    blocks_delivered: int = 0
    misses: int = 0
    skips: int = 0
    total_lateness: float = 0.0
    max_lateness: float = 0.0
    startup_latency: float = 0.0
    buffer_high_water: int = 0
    _lateness_samples: List[float] = field(default_factory=list)

    def record_delivery(self, arrival: float, deadline: float) -> None:
        """Score one block's arrival against its deadline."""
        self.blocks_delivered += 1
        late = arrival - deadline
        self._lateness_samples.append(late)
        if late > 0:
            self.misses += 1
            self.total_lateness += late
            self.max_lateness = max(self.max_lateness, late)

    def record_skip(self, given_up: float, deadline: float) -> None:
        """Score a block whose data never arrived (fault recovery gave up).

        A skip is always a glitch — the display substitutes (repeats the
        previous frame, mutes the audio) for the block's playback period
        — so it counts as a miss even when recovery abandoned it ahead of
        the deadline to protect the rest of the round.
        """
        self.skips += 1
        self.misses += 1
        late = given_up - deadline
        if late > 0:
            self.total_lateness += late
            self.max_lateness = max(self.max_lateness, late)

    @property
    def continuous(self) -> bool:
        """True when no block missed its deadline."""
        return self.misses == 0

    @property
    def glitches(self) -> int:
        """Visible playback defects: late blocks plus skipped blocks."""
        return self.misses

    @property
    def miss_ratio(self) -> float:
        """Fraction of blocks that missed (skips included)."""
        total = self.blocks_delivered + self.skips
        if total == 0:
            return 0.0
        return self.misses / total

    @property
    def mean_lateness(self) -> float:
        """Mean signed lateness across all blocks (negative = early)."""
        if not self._lateness_samples:
            return 0.0
        return sum(self._lateness_samples) / len(self._lateness_samples)

    @property
    def jitter(self) -> float:
        """Peak-to-peak spread of arrival lateness, seconds."""
        if not self._lateness_samples:
            return 0.0
        return max(self._lateness_samples) - min(self._lateness_samples)

    def summary(self) -> str:
        """Canonical one-line rendering, stable to the last bit.

        Floats are printed with :func:`repr`-exact precision so two runs
        are comparable byte-for-byte — the determinism contract the
        chaos tests replay against.
        """
        return (
            f"request={self.request_id}"
            f" delivered={self.blocks_delivered}"
            f" misses={self.misses}"
            f" skips={self.skips}"
            f" total_lateness={self.total_lateness!r}"
            f" max_lateness={self.max_lateness!r}"
            f" startup={self.startup_latency!r}"
            f" high_water={self.buffer_high_water}"
        )
