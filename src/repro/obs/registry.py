"""The metrics registry: counters, gauges, histograms, and timers.

Components register named instruments into one :class:`MetricsRegistry`
and the registry serializes the whole population to **stable, sorted
JSON** (:meth:`MetricsRegistry.snapshot`).  Under a fixed seed every
instrument's value is a pure function of the simulated workload, so two
identical runs yield byte-identical snapshots — the property the golden
regression tests pin down.

Two deliberate asymmetries keep the registry honest:

* **Disabled registries cost (almost) nothing.**  A registry constructed
  with ``enabled=False`` hands out shared null instruments whose methods
  are no-ops; hot paths additionally guard on ``observer is None`` so the
  default (no observer attached) adds a single attribute test.
* **Wall-clock profiling never leaks into snapshots by default.**
  :class:`ProfileTimer` records real elapsed seconds (useful live), but
  ``snapshot()`` serializes only the deterministic call counts unless
  ``include_profile=True`` is requested — wall time would break the
  byte-stability contract.
"""

from __future__ import annotations

import json
import time as _time
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.errors import ParameterError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "ProfileTimer",
    "MetricsRegistry",
    "DEADLINE_SLACK_BUCKETS",
    "SEEK_TIME_BUCKETS",
    "ROUND_UTILIZATION_BUCKETS",
    "QUEUE_DEPTH_BUCKETS",
    "BATCH_SIZE_BUCKETS",
]

#: Deadline slack (deadline − arrival), seconds: negative is a miss.
DEADLINE_SLACK_BUCKETS: Tuple[float, ...] = (
    -1.0, -0.1, -0.01, 0.0, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0,
)
#: Per-access seek time, seconds (testbed full stroke is tens of ms).
SEEK_TIME_BUCKETS: Tuple[float, ...] = (
    0.0, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1,
)
#: Round duration over its continuity budget (≤ 1.0 keeps Eq. 11).
ROUND_UTILIZATION_BUCKETS: Tuple[float, ...] = (
    0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 1.5, 2.0,
)
#: Concurrently serviced streams per round.
QUEUE_DEPTH_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0,
)
#: Sessions admitted together per admission batch (1 = unbatched).
BATCH_SIZE_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
)


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add *amount* (must be >= 0)."""
        if amount < 0:
            raise ParameterError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        self.value += amount


class WatchedCounter:
    """A counter other objects keep: *base* plus each watched owner's
    attribute now, *base* lowered by its value when it was watched (so
    each owner adds its growth since)."""

    __slots__ = ("name", "base", "owners", "attributes")

    def __init__(self, name: str, base: int):
        self.name, self.base = name, base
        self.owners: List[object] = []
        self.attributes: List[str] = []

    @property
    def value(self) -> int:
        return self.base + sum(map(getattr, self.owners, self.attributes))


class Gauge:
    """A point-in-time numeric value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current level."""
        self.value = float(value)


class Histogram:
    """A fixed-bucket histogram.

    ``buckets`` are ascending upper bounds: an observation lands in the
    first bucket whose bound is >= the value, or in ``overflow`` when it
    exceeds the last bound.  Invariant (property-tested):
    ``sum(counts) + overflow == count``.
    """

    __slots__ = ("name", "buckets", "counts", "overflow", "count", "total")

    def __init__(self, name: str, buckets: Iterable[float]):
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ParameterError(f"histogram {name!r} needs >= 1 bucket")
        if list(bounds) != sorted(bounds):
            raise ParameterError(
                f"histogram {name!r} buckets must ascend: {bounds}"
            )
        self.name = name
        self.buckets = bounds
        self.counts = [0] * len(bounds)
        self.overflow = 0
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.count += 1
        self.total += value
        index = bisect_left(self.buckets, value)
        if index < len(self.counts):
            self.counts[index] += 1
        else:
            self.overflow += 1

    @property
    def mean(self) -> float:
        """Mean of all observed samples (0.0 when empty)."""
        if self.count == 0:
            return 0.0
        return self.total / self.count

    def quantile(self, q: float) -> Optional[float]:
        """Bucket-resolution quantile estimate.

        Returns the smallest bucket upper bound covering at least
        fraction *q* of the samples — ``inf`` when the quantile lands in
        the overflow region, None when the histogram is empty.  The
        estimate is exact to bucket granularity and fully deterministic.
        """
        if not 0.0 < q <= 1.0:
            raise ParameterError(f"quantile q must be in (0, 1], got {q}")
        if self.count == 0:
            return None
        target = q * self.count
        cumulative = 0
        for bound, bucket_count in zip(self.buckets, self.counts):
            cumulative += bucket_count
            if cumulative >= target:
                return bound
        return float("inf")


class ProfileTimer:
    """A lightweight profiling hook: call count + wall seconds.

    Usable as a context manager (what :meth:`MetricsRegistry.timed`
    returns).  Only ``calls`` is deterministic; ``wall_seconds`` exists
    for live diagnosis and is excluded from default snapshots.
    """

    __slots__ = ("name", "calls", "wall_seconds", "_entered")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.wall_seconds = 0.0
        self._entered = 0.0

    def __enter__(self) -> "ProfileTimer":
        self.calls += 1
        self._entered = _time.perf_counter()
        return self

    def __exit__(self, *_exc) -> None:
        self.wall_seconds += _time.perf_counter() - self._entered


class _NullInstrument:
    """Shared no-op instrument handed out by disabled registries."""

    __slots__ = ()
    name = ""
    value = 0
    count = 0
    overflow = 0
    total = 0.0
    mean = 0.0
    calls = 0
    wall_seconds = 0.0
    buckets: Tuple[float, ...] = ()
    counts: List[int] = []

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def __enter__(self) -> "_NullInstrument":
        return self

    def __exit__(self, *_exc) -> None:
        pass


_NULL = _NullInstrument()


class MetricsRegistry:
    """Named instruments with a byte-stable JSON serialization.

    Parameters
    ----------
    enabled:
        When False (the default for observers nobody attached), every
        ``counter``/``gauge``/``histogram``/``timer`` call returns a
        shared null instrument and ``snapshot()`` reports an empty
        registry.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._timers: Dict[str, ProfileTimer] = {}

    # -- instrument registration ------------------------------------------------

    def _get(self, table: Dict, name: str, make):
        """*table*'s instrument *name*, ``make(name)`` on first use (the
        shared null instrument when disabled)."""
        if not self.enabled:
            return _NULL
        instrument = table.get(name)
        if instrument is None:
            instrument = table[name] = make(name)
        return instrument

    def counter(self, name: str) -> Counter:
        """Get or create the counter *name*."""
        return self._get(self._counters, name, Counter)

    def watch_counter(self, name: str, owner, attribute: str) -> None:
        """Make counter *name* read *owner*'s own *attribute* from now on
        (its growth, once per owner) instead of being counted here."""
        counter = self._get(self._counters, name, Counter)
        if counter is _NULL:
            return
        if not isinstance(counter, WatchedCounter):
            counter = self._counters[name] = WatchedCounter(name, counter.value)
        if all(seen is not owner for seen in counter.owners):
            counter.owners.append(owner)
            counter.attributes.append(attribute)
            counter.base -= getattr(owner, attribute)

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge *name*."""
        return self._get(self._gauges, name, Gauge)

    def histogram(
        self, name: str, buckets: Iterable[float]
    ) -> Histogram:
        """Get or create the histogram *name* with fixed *buckets*.

        Re-registering an existing histogram with different buckets is an
        error — bucket layout is part of the metric's identity.
        """
        bounds = tuple(float(b) for b in buckets)
        instrument = self._get(
            self._histograms, name, lambda name: Histogram(name, bounds)
        )
        if instrument is not _NULL and instrument.buckets != bounds:
            raise ParameterError(
                f"histogram {name!r} already registered with buckets "
                f"{instrument.buckets}"
            )
        return instrument

    def timer(self, name: str) -> ProfileTimer:
        """Get or create the profiling timer *name*."""
        return self._get(self._timers, name, ProfileTimer)

    #: The timer as a context manager: ``with registry.timed("x"): ...``.
    timed = timer

    # -- read-only access --------------------------------------------------------

    def peek_counter(self, name: str) -> Optional[int]:
        """The counter's value, or None when it was never registered.

        Unlike :meth:`counter` this never creates the instrument, so
        derived evaluators (the SLO monitor) can probe without changing
        what a snapshot contains.
        """
        instrument = self._counters.get(name)
        return None if instrument is None else instrument.value

    def peek_histogram(self, name: str) -> Optional[Histogram]:
        """The histogram instrument, or None when never registered."""
        return self._histograms.get(name)

    # -- serialization -----------------------------------------------------------

    def snapshot_dict(self, include_profile: bool = False) -> Dict:
        """The registry as a plain, JSON-ready dict (deterministic).

        Timers serialize only their call counts unless *include_profile*
        — wall seconds are not reproducible across runs.
        """
        histograms = {}
        for name, hist in self._histograms.items():
            histograms[name] = {
                "buckets": list(hist.buckets),
                "counts": list(hist.counts),
                "overflow": hist.overflow,
                "count": hist.count,
                "sum": hist.total,
            }
        timers: Dict[str, Dict[str, float]] = {}
        for name, timer in self._timers.items():
            entry: Dict[str, float] = {"calls": timer.calls}
            if include_profile:
                entry["wall_seconds"] = timer.wall_seconds
            timers[name] = entry
        return {
            "counters": {
                name: counter.value
                for name, counter in self._counters.items()
            },
            "gauges": {
                name: gauge.value for name, gauge in self._gauges.items()
            },
            "histograms": histograms,
            "timers": timers,
        }

    def snapshot(self, include_profile: bool = False) -> str:
        """Stable sorted-key JSON of the whole registry."""
        return json.dumps(
            self.snapshot_dict(include_profile=include_profile),
            sort_keys=True,
            indent=2,
        )

    @staticmethod
    def diff(before: Union[str, Dict], after: Union[str, Dict]) -> Dict:
        """Leaf-level differences between two snapshots.

        Accepts snapshot JSON strings or dicts; returns a flat mapping of
        dotted paths to ``[before, after]`` pairs covering changed,
        added (``before`` is None) and removed (``after`` is None)
        leaves.  An empty dict means the snapshots are identical.
        """
        if isinstance(before, str):
            before = json.loads(before)
        if isinstance(after, str):
            after = json.loads(after)
        changes: Dict[str, List] = {}
        _walk_diff("", before, after, changes)
        return changes

    def reset(self) -> None:
        """Drop every instrument (a fresh registry)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._timers.clear()


def _walk_diff(prefix: str, before, after, out: Dict[str, List]) -> None:
    if isinstance(before, dict) and isinstance(after, dict):
        for key in sorted(set(before) | set(after)):
            path = f"{prefix}.{key}" if prefix else str(key)
            if key not in before:
                out[path] = [None, after[key]]
            elif key not in after:
                out[path] = [before[key], None]
            else:
                _walk_diff(path, before[key], after[key], out)
        return
    if before != after:
        out[prefix] = [before, after]
