"""Declarative service-level objectives over the metrics registry.

The paper's guarantees are *timing* claims — continuous playback under
the §3.4 admission inequality — but the metrics registry only stores raw
instruments.  :class:`SloMonitor` closes the gap: each
:class:`Slo` names a derived metric (continuity ratio, a deadline-slack
quantile, a typed reject rate, the cache hit ratio), a comparison, and a
threshold; the monitor re-evaluates them on every service round and at
run end, and records a deterministic **breach event** whenever an
objective transitions between satisfied and breached.

Evaluation is read-only: the monitor peeks at instruments without
creating them, so attaching SLOs never changes what a snapshot contains.
A metric whose inputs do not exist yet (no cache in the topology, no
admission decisions taken) evaluates to ``None`` — "no data", which is
neither satisfied nor breached and produces no events.

Everything derives from simulated time and deterministic counters, so
the ``slo`` snapshot section is byte-stable under a fixed seed.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ParameterError
from repro.obs.registry import MetricsRegistry

__all__ = ["Slo", "SloMonitor", "DEFAULT_SLOS", "CLUSTER_SLOS"]

#: The slack quantile each ``deadline_slack_*`` metric reads.
_QUANTILES = {"deadline_slack_p95_s": 0.05, "deadline_slack_p99_s": 0.01}

#: Comparison operators an objective may use, each with its test.
_TESTS = {">=": operator.ge, "<=": operator.le}
_OPS = tuple(_TESTS)

#: Metrics the resolver understands (``reject_rate`` also accepts a
#: ``:<reason>`` suffix matching a typed RejectReason value).
_METRICS = (
    "continuity_ratio",
    "deadline_slack_p95_s",
    "deadline_slack_p99_s",
    "cache_hit_ratio",
    "reject_rate",
    "handoff_clean_ratio",
)


@dataclass(frozen=True)
class Slo:
    """One declarative objective.

    ``scope`` selects the evaluation cadence: ``"round"`` objectives are
    checked after every service round (breaches carry the round number),
    ``"final"`` objectives only at :meth:`SloMonitor.finalize`.  Both are
    re-evaluated once more at finalize so the summary always reports a
    final verdict.
    """

    name: str
    metric: str
    op: str
    threshold: float
    scope: str = "final"

    def __post_init__(self):
        if self.op not in _OPS:
            raise ParameterError(
                f"slo {self.name!r}: op must be one of {_OPS}, "
                f"got {self.op!r}"
            )
        if self.scope not in ("round", "final"):
            raise ParameterError(
                f"slo {self.name!r}: scope must be 'round' or 'final', "
                f"got {self.scope!r}"
            )
        base = self.metric.split(":", 1)[0]
        if base not in _METRICS:
            raise ParameterError(
                f"slo {self.name!r}: unknown metric {self.metric!r} "
                f"(known: {_METRICS})"
            )

    def satisfied_by(self, value: float) -> bool:
        """Whether *value* meets this objective."""
        return _TESTS[self.op](value, self.threshold)


#: The stock objective set scenarios attach: perfect continuity, block
#: deadline slack non-negative at the p95/p99 tail, a warm cache, and
#: zero rejects overall plus per typed reason.
DEFAULT_SLOS: Tuple[Slo, ...] = (
    Slo("continuity", "continuity_ratio", ">=", 1.0, "final"),
    Slo("slack-p95", "deadline_slack_p95_s", ">=", 0.0, "final"),
    Slo("slack-p99", "deadline_slack_p99_s", ">=", 0.0, "final"),
    Slo("cache-warm", "cache_hit_ratio", ">=", 0.5, "round"),
    Slo("no-rejects", "reject_rate", "<=", 0.0, "round"),
    Slo("no-capacity-rejects", "reject_rate:capacity", "<=", 0.0, "final"),
    Slo("no-k-bound-rejects", "reject_rate:k_bound", "<=", 0.0, "final"),
)
#: The stock cluster objective set: everything a single server promises
#: plus ">= 90% of handoffs resume without a continuity break" — the
#: distributed-VoD acceptance criterion.
CLUSTER_SLOS: Tuple[Slo, ...] = DEFAULT_SLOS + (
    Slo("handoff-clean", "handoff_clean_ratio", ">=", 0.9, "final"),
)


def _share(part: Optional[int], whole: int) -> Optional[float]:
    """*part* (0 when never registered) over *whole*, or None — no data —
    while *whole* is 0."""
    return (part or 0) / whole if whole else None


class SloMonitor:
    """Evaluates a set of :class:`Slo` objectives against a registry.

    Breach events are *transitions*: one event when an objective first
    breaches, one when it recovers — not one per round — so the event
    list stays small and readable in golden snapshots.
    """

    def __init__(self, registry: MetricsRegistry, slos=DEFAULT_SLOS):
        names = [slo.name for slo in slos]
        if len(set(names)) != len(names):
            raise ParameterError(f"duplicate slo names: {names}")
        self.registry = registry
        self.slos: Tuple[Slo, ...] = tuple(slos)
        #: Each scope's objectives, each with its metric's reader and test.
        self._scoped = {
            scope: [(s, self._reader(s.metric), _TESTS[s.op]) for s in self.slos
                    if s.scope == scope]
            for scope in ("round", "final")
        }
        self.events: List[Dict[str, object]] = []
        self._breached: Dict[str, bool] = {}
        self._last: Dict[str, Optional[float]] = {}
        self._finalized_at: Optional[float] = None

    # -- metric resolution -------------------------------------------------------

    def value_of(self, metric: str) -> Optional[float]:
        """Resolve a derived metric; None means "no data yet"."""
        return self._reader(metric)()

    def _reader(self, metric: str) -> Callable[[], Optional[float]]:
        """*metric*'s value now, as a call of no arguments: the name is
        dispatched once, and a tick reads each input counter in place
        (``getattr(get(name), "value", None)`` is ``peek_counter``)."""
        registry, get = self.registry, self.registry._counters.get
        base, typed, reason = metric.partition(":")
        if metric == "continuity_ratio":
            def read():
                delivered = getattr(get("session.blocks_delivered"), "value", 0)
                missed = getattr(get("session.deadline_misses"), "value", 0)
                return _share(delivered - missed, delivered)
        elif metric == "cache_hit_ratio":
            def read():
                hits = getattr(get("cache.hits"), "value", None)
                misses = getattr(get("cache.misses"), "value", 0)
                return _share(hits, (hits or 0) + misses)
        elif metric in _QUANTILES:
            def read():
                hist = registry.peek_histogram("session.deadline_slack_s")
                return None if hist is None else hist.quantile(_QUANTILES[metric])
        elif base == "reject_rate":
            part = f"server.reject.{reason}" if typed else "server.sessions_rejected"

            def read():
                opened = getattr(get("server.sessions_opened"), "value", 0)
                rejected = getattr(get("server.sessions_rejected"), "value", 0)
                return _share(getattr(get(part), "value", None), opened + rejected)
        elif metric == "handoff_clean_ratio":
            def read():
                clean = getattr(get("cluster.handoffs_clean"), "value", None)
                return _share(clean, getattr(get("cluster.handoffs_total"), "value", 0))
        else:
            raise ParameterError(f"unknown slo metric {metric!r}")
        return read

    # -- evaluation --------------------------------------------------------------

    def on_round(self, time: float, round_number: int) -> List[Dict[str, object]]:
        """Evaluate round-scope objectives after one service round; returns
        the breach-transition events it emitted (usually none)."""
        return self._evaluate("round", time, round_number)

    def finalize(self, time: float) -> List[Dict[str, object]]:
        """Evaluate *all* objectives at run end."""
        self._finalized_at = time
        events = self._evaluate("round", time, None)
        events += self._evaluate("final", time, None)
        return events

    def _evaluate(
        self, scope: str, time: float, round_number: Optional[int]
    ) -> List[Dict[str, object]]:
        emitted: List[Dict[str, object]] = []
        last, was = self._last, self._breached
        for slo, read, test in self._scoped[scope]:
            value = last[slo.name] = read()
            if value is None:
                continue   # no data yet: neither satisfied nor breached
            breached = not test(value, slo.threshold)
            if breached == was.get(slo.name, False):
                continue
            was[slo.name] = breached
            event = {
                "slo": slo.name,
                "metric": slo.metric,
                "time": time,
                "round": round_number,
                "value": self._json_value(value),
                "threshold": slo.threshold,
                "op": slo.op,
                "to": "breach" if breached else "ok",
            }
            self.events.append(event)
            emitted.append(event)
        return emitted

    # -- serialization -----------------------------------------------------------

    @staticmethod
    def _json_value(value: Optional[float]):
        if value is None:
            return None
        if not math.isfinite(value):
            return "inf" if value > 0 else "-inf"
        return value

    def summary_dict(self) -> Dict[str, object]:
        """Deterministic rollup for snapshot embedding."""
        objectives: Dict[str, Dict[str, object]] = {}
        for slo in self.slos:
            value = self._last.get(slo.name)
            satisfied: Optional[bool] = None
            if value is not None:
                satisfied = slo.satisfied_by(value)
            objectives[slo.name] = {
                "metric": slo.metric,
                "op": slo.op,
                "threshold": slo.threshold,
                "scope": slo.scope,
                "value": self._json_value(value),
                "satisfied": satisfied,
            }
        return {
            "objectives": objectives,
            "breach_events": list(self.events),
            "breached_now": sorted(
                name for name, bad in self._breached.items() if bad
            ),
        }
