"""Continuity metrics: what the simulation measures (§3.1's requirement).

"For continuous retrieval of media data, it is essential that media
information be available at the display device at or before the time of
its playback."  :class:`ContinuityMetrics` scores one request's playback
against that requirement: every block has a deadline (from the recording
rate) and an arrival time (from the simulated disk); a block arriving
after its deadline is a **continuity violation** ("glitch"), and its
lateness quantifies how audible/visible the glitch would be.

A playback is two columns: when each block landed (``ready``) and when
it finished playing (``ends``, §3.1's cascade ``ends[i] = max(ends[i-1],
ready[i]) + duration[i]``, folded by whoever served it).
:meth:`ContinuityMetrics.score` is the one scorer over them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Container, Iterable, Sequence

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
    #: Signed lateness over delivered blocks: running sum and extremes.
    _late_sum: float = field(default=0.0, repr=False)
    _late_min: float = field(default=float("inf"), repr=False)
    _late_max: float = field(default=float("-inf"), repr=False)

    def score(
        self,
        ready: Sequence[float],
        deadlines: Iterable[float],
        ends: Sequence[float],
        skipped: Container[int] = (),
        high_water_from: int = 0,
    ) -> None:
        """Score one playback, in playback order, from its two columns.

        Block i landed at ``ready[i]``, was due at the i-th of *deadlines*
        (the caller's, so each keeps its own float association) and
        finished playing at ``ends[i]``; indexes in *skipped* never
        arrived.  The buffer high-water is sampled as each block from
        *high_water_from* on lands — that block and those before it, less
        the ones whose play-out ended by then.  *ready* must be
        non-decreasing.  A skip is always a glitch (the display substitutes
        for the block's period), so it counts as a miss even when recovery
        gave up ahead of the deadline.
        """
        delivered, misses, skips = self.blocks_delivered, self.misses, self.skips
        total, worst = self.total_lateness, self.max_lateness
        late_sum, late_min, late_max = self._late_sum, self._late_min, self._late_max
        consumed, high = 0, self.buffer_high_water
        for index, (landed, deadline) in enumerate(zip(ready, deadlines)):
            late = landed - deadline
            if index in skipped:
                skips += 1
                misses += 1
                if late > 0:
                    total += late
                    worst = max(worst, late)
            else:
                delivered += 1
                late_sum += late
                if late < late_min:
                    late_min = late
                if late > late_max:
                    late_max = late
                if late > 0:
                    misses += 1
                    total += late
                    worst = max(worst, late)
            if index < high_water_from:
                continue
            while consumed <= index and ends[consumed] <= landed:
                consumed += 1
            if index + 1 - consumed > high:
                high = index + 1 - consumed
        self.blocks_delivered, self.misses, self.skips = delivered, misses, skips
        self.total_lateness, self.max_lateness = total, worst
        self._late_sum, self._late_min, self._late_max = late_sum, late_min, late_max
        self.buffer_high_water = high

    @property
    def continuous(self) -> bool:
        """True when no block missed its deadline."""
        return self.misses == 0

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
        if not self.blocks_delivered:
            return 0.0
        return self._late_sum / self.blocks_delivered

    @property
    def jitter(self) -> float:
        """Peak-to-peak spread of arrival lateness, seconds."""
        if self._late_max < self._late_min:
            return 0.0
        return self._late_max - self._late_min

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
