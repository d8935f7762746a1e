"""Seek-time and rotational-latency models for the simulated drive.

The continuity analysis needs three numbers from a drive — maximum,
average, and adjacent-cylinder access times — but the *simulation* needs a
full distance→time curve so that constrained placement actually produces
the bounded access times the analysis assumes.  Three curves are provided:

* :class:`LinearSeek` — time affine in cylinder distance.  Simple, and the
  easiest to invert, which the constrained allocator exploits.
* :class:`SqrtAffineSeek` — ``a + b·√d``, the classic model of arm
  acceleration-limited short seeks and velocity-limited long seeks.
* :class:`TableSeek` — piecewise-linear interpolation through measured
  (distance, time) points, for replaying a real drive's datasheet.

All models report time 0 for distance 0 (no head movement) plus a fixed
``settle_time``; rotational latency is modelled separately by
:class:`Rotation` so experiments can choose deterministic (expected value)
or randomized latency.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.errors import ParameterError

__all__ = [
    "SeekModel",
    "LinearSeek",
    "SqrtAffineSeek",
    "TableSeek",
    "Rotation",
]


class SeekModel:
    """Distance→time curve interface.

    Subclasses implement :meth:`seek_time` — a monotonically non-decreasing
    function of cylinder distance — and :meth:`max_distance_within`, its
    inverse, used by the constrained allocator to turn a time window into a
    cylinder-distance window.
    """

    def seek_time(self, distance: int) -> float:
        """Seconds to move the arm *distance* cylinders (>= 0)."""
        raise NotImplementedError

    def max_distance_within(self, budget: float, cylinders: int) -> int:
        """Largest distance whose seek time is ≤ *budget* seconds.

        The default implementation binary-searches :meth:`seek_time`
        over [0, cylinders−1]; subclasses with closed-form inverses
        override it.  Results are memoized per ``(budget, cylinders)``
        pair — the curve is immutable, and allocators ask the same
        inversion question for every placement decision.
        """
        cache = getattr(self, "_inverse_cache", None)
        if cache is None:
            cache = {}
            try:
                # Works on frozen-dataclass subclasses too (same route
                # their own __init__ takes); only __slots__ types refuse.
                object.__setattr__(self, "_inverse_cache", cache)
            except AttributeError:
                cache = None
        key = (budget, cylinders)
        if cache is not None and key in cache:
            return cache[key]
        result = self._invert_seek_time(budget, cylinders)
        if cache is not None:
            cache[key] = result
        return result

    def _invert_seek_time(self, budget: float, cylinders: int) -> int:
        """Uncached binary-search inversion of :meth:`seek_time`."""
        if budget < 0:
            return -1
        low, high = 0, cylinders - 1
        if self.seek_time(low) > budget:
            return -1
        while low < high:
            mid = (low + high + 1) // 2
            if self.seek_time(mid) <= budget:
                low = mid
            else:
                high = mid - 1
        return low

    def _check_distance(self, distance: int) -> None:
        if distance < 0:
            raise ParameterError(f"seek distance must be >= 0, got {distance}")


@dataclass(frozen=True)
class LinearSeek(SeekModel):
    """Seek time affine in distance: ``settle + slope·d`` for d > 0.

    Parameters
    ----------
    settle_time:
        Fixed head-settle overhead applied to every non-zero seek, seconds.
    slope:
        Additional seconds per cylinder of travel.
    """

    settle_time: float
    slope: float

    def __post_init__(self) -> None:
        if self.settle_time < 0:
            raise ParameterError(
                f"settle_time must be >= 0, got {self.settle_time}"
            )
        if self.slope < 0:
            raise ParameterError(f"slope must be >= 0, got {self.slope}")

    def seek_time(self, distance: int) -> float:
        self._check_distance(distance)
        if distance == 0:
            return 0.0
        return self.settle_time + self.slope * distance

    def max_distance_within(self, budget: float, cylinders: int) -> int:
        if budget < 0:
            return -1
        if budget < self.settle_time or self.slope == 0 or math.isinf(budget):
            return cylinders - 1 if budget >= self.settle_time else 0
        distance = int((budget - self.settle_time) / self.slope)
        return min(distance, cylinders - 1)


@dataclass(frozen=True)
class SqrtAffineSeek(SeekModel):
    """Seek time ``settle + coefficient·√d`` for d > 0.

    Captures the acceleration-limited regime of short seeks; widely used
    in disk-modelling literature.
    """

    settle_time: float
    coefficient: float

    def __post_init__(self) -> None:
        if self.settle_time < 0:
            raise ParameterError(
                f"settle_time must be >= 0, got {self.settle_time}"
            )
        if self.coefficient < 0:
            raise ParameterError(
                f"coefficient must be >= 0, got {self.coefficient}"
            )

    def seek_time(self, distance: int) -> float:
        self._check_distance(distance)
        if distance == 0:
            return 0.0
        return self.settle_time + self.coefficient * math.sqrt(distance)

    def max_distance_within(self, budget: float, cylinders: int) -> int:
        if budget < 0:
            return -1
        if budget < self.settle_time:
            return 0
        if self.coefficient == 0 or math.isinf(budget):
            return cylinders - 1
        distance = int(((budget - self.settle_time) / self.coefficient) ** 2)
        return min(distance, cylinders - 1)


class TableSeek(SeekModel):
    """Piecewise-linear seek curve through (distance, seconds) points.

    Parameters
    ----------
    points:
        Measured curve, e.g. ``[(1, 0.004), (100, 0.012), (1000, 0.025)]``.
        Distances must be strictly increasing and times non-decreasing.
        Distance 0 always maps to time 0; queries beyond the last point
        extrapolate with the final segment's slope.
    """

    def __init__(self, points: Sequence[Tuple[int, float]]):
        if not points:
            raise ParameterError("TableSeek requires at least one point")
        distances = [d for d, _ in points]
        times = [t for _, t in points]
        if any(d <= 0 for d in distances):
            raise ParameterError("table distances must be positive")
        if any(b <= a for a, b in zip(distances, distances[1:])):
            raise ParameterError("table distances must be strictly increasing")
        if any(t < 0 for t in times):
            raise ParameterError("table times must be >= 0")
        if any(b < a for a, b in zip(times, times[1:])):
            raise ParameterError("table times must be non-decreasing")
        self._distances = list(distances)
        self._times = list(times)
        #: distance → seconds memo.  A service run asks about the same
        #: few stride distances millions of times; the table itself is
        #: immutable, so entries never invalidate.
        self._seek_cache: dict = {}

    def seek_time(self, distance: int) -> float:
        cached = self._seek_cache.get(distance)
        if cached is not None:
            return cached
        result = self._interpolate_seek_time(distance)
        self._seek_cache[distance] = result
        return result

    def _interpolate_seek_time(self, distance: int) -> float:
        """Uncached piecewise-linear interpolation."""
        self._check_distance(distance)
        if distance == 0:
            return 0.0
        ds, ts = self._distances, self._times
        if distance <= ds[0]:
            # Interpolate from the implicit (0, 0) anchor.
            return ts[0] * distance / ds[0]
        if distance >= ds[-1]:
            if len(ds) == 1:
                return ts[-1]
            slope = (ts[-1] - ts[-2]) / (ds[-1] - ds[-2])
            return ts[-1] + slope * (distance - ds[-1])
        i = bisect.bisect_left(ds, distance)
        d0, d1 = ds[i - 1], ds[i]
        t0, t1 = ts[i - 1], ts[i]
        return t0 + (t1 - t0) * (distance - d0) / (d1 - d0)


@dataclass(frozen=True)
class Rotation:
    """Rotational-latency model.

    Parameters
    ----------
    rpm:
        Spindle speed; 3600 rpm was typical in 1991.
    randomized:
        If True, latency is uniform in [0, revolution); otherwise the
        deterministic expected value (half a revolution) is charged, which
        keeps simulations reproducible and matches the paper's practice of
        folding average latency into its access-time figures.
    """

    rpm: float
    randomized: bool = False

    def __post_init__(self) -> None:
        if self.rpm <= 0:
            raise ParameterError(f"rpm must be positive, got {self.rpm}")

    @property
    def revolution_time(self) -> float:
        """Seconds per spindle revolution."""
        return 60.0 / self.rpm

    @property
    def average_latency(self) -> float:
        """Expected rotational delay: half a revolution."""
        return self.revolution_time / 2.0

    @property
    def max_latency(self) -> float:
        """Worst-case rotational delay: one full revolution."""
        return self.revolution_time

    def latency(self, rng: Optional[random.Random] = None) -> float:
        """Sample (or return the expected) rotational latency."""
        if not self.randomized:
            return self.average_latency
        if rng is None:
            raise ParameterError(
                "randomized Rotation.latency() requires an rng for "
                "reproducibility"
            )
        return rng.uniform(0.0, self.revolution_time)
