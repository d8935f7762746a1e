"""Continuity metrics: what the simulation measures (§3.1's requirement).

"For continuous retrieval of media data, it is essential that media
information be available at the display device at or before the time of
its playback."  :class:`ContinuityMetrics` scores one request's playback
against that requirement: every block has a deadline (from the recording
rate) and an arrival time (from the simulated disk); a block arriving
after its deadline is a **continuity violation** ("glitch"), and its
lateness quantifies how audible/visible the glitch would be.

The one new fact per block is when it landed — a ``ready`` column beside
the plan's durations.  :func:`consumed_prefix` is the playback fold over
those two columns and :meth:`ContinuityMetrics.score` the one scorer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Container, Iterable, Sequence, Tuple

__all__ = ["ContinuityMetrics", "consumed_prefix"]


def consumed_prefix(
    ready: Iterable[float],
    durations: Iterable[float],
    start: float,
    now: float,
) -> Tuple[int, float]:
    """Playback consumption at *now*: ``(blocks played, clock after them)``.

    Playback cascades over the delivery schedule: block j starts when its
    data is ready and the previous block has finished, so consumption is
    a running fold over ``(ready, duration)`` from the clock's *start*.
    With ``now = inf`` it is the whole fold — when the last block ends.
    """
    count = 0
    elapsed = start
    for landed, duration in zip(ready, durations):
        end = max(elapsed, landed) + duration
        if end > now:
            break
        count += 1
        elapsed = end
    return count, elapsed


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

    def record_delivery(self, arrival: float, deadline: float) -> None:
        """Score one block's arrival against its deadline."""
        self.blocks_delivered += 1
        late = arrival - deadline
        self._late_sum += late
        if late < self._late_min:
            self._late_min = late
        if late > self._late_max:
            self._late_max = late
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

    def score(
        self,
        ready: Sequence[float],
        deadlines: Iterable[float],
        durations: Sequence[float],
        start: float,
        skipped: Container[int] = (),
        high_water_from: int = 0,
    ) -> None:
        """Score one playback, in playback order, from its ``ready`` column.

        Block i landed at ``ready[i]`` and was due at the i-th of
        *deadlines* (the caller's, so each keeps its own float
        association); indexes in *skipped* never arrived.  The buffer
        high-water is sampled as each block from *high_water_from* on
        lands — that block and those before it, less what playback
        (clock started at *start*, the fold of :func:`consumed_prefix`)
        has consumed of them by then.  *ready* must be non-decreasing.
        """
        consumed, elapsed = 0, start
        high = self.buffer_high_water
        for index, (landed, deadline) in enumerate(zip(ready, deadlines)):
            if index in skipped:
                self.record_skip(landed, deadline)
            else:
                self.record_delivery(landed, deadline)
            if index < high_water_from:
                continue
            while consumed <= index:
                end = max(elapsed, ready[consumed]) + durations[consumed]
                if end > landed:
                    break
                consumed += 1
                elapsed = end
            if index + 1 - consumed > high:
                high = index + 1 - consumed
        self.buffer_high_water = high

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
