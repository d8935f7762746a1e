"""Observability: metrics, session timelines, and admission audit.

The paper's guarantees are claims about *time*; this package is how the
reproduction proves it kept them.  Components report into an optional
:class:`Observability` handle (default off, zero-overhead when absent):

* :class:`MetricsRegistry` — counters, gauges, fixed-bucket histograms
  (deadline slack, seek time, round utilization, queue depth), and
  profiling timers, serialized to byte-stable sorted JSON;
* :class:`SessionTimeline` — per-session block lifecycle stage counts
  (``enqueued → read-start → read-done → consumed | skipped``), read-done
  jitter and the conservation check, tallied from the loop's columns;
* :class:`AdmissionAuditLog` — every admit/reject/revalidate with the
  exact inequality and operand values the decision turned on;
* :class:`SpanTracer` — deterministic causal spans across the whole
  MRS→MSM→rounds→disk request path, exportable as Chrome trace-event
  JSON (``repro trace-export``);
* :class:`SloMonitor` — declarative objectives (continuity, deadline
  slack quantiles, typed reject rates, cache hit ratio) evaluated per
  round with breach-transition events in the snapshot;
* :class:`CostProfiler` — deterministic cost attribution: a view of
  the drives' and caches' own statistics as named phases
  (:data:`PHASES`) with op counts and modeled-time costs, per stream /
  drive / cluster node, exported as Perfetto counter tracks (``repro
  profile``);
* :class:`ScopedObservability` — ``obs.scoped(node_id)``, what a cluster
  node is handed: the same observer under a node id.  Every write lands
  once, in the one registry; the id decides whose ``per_node`` profile
  row a drive, cache or fault delay lands in, and the other per-node
  numbers are node-labelled ``cluster.*`` counters.

The canonical end-to-end scenarios (the golden-trace baselines) live
in :mod:`repro.scenarios`.
"""

from repro.obs.audit import AdmissionAuditLog, AuditEntry
from repro.obs.observer import Observability, ScopedObservability
from repro.obs.profiling import PHASES, CostProfiler
from repro.obs.registry import (
    DEADLINE_SLACK_BUCKETS,
    QUEUE_DEPTH_BUCKETS,
    ROUND_UTILIZATION_BUCKETS,
    SEEK_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ProfileTimer,
)
from repro.obs.slo import DEFAULT_SLOS, Slo, SloMonitor
from repro.obs.timeline import BlockStage, SessionTimeline
from repro.obs.tracing import Span, SpanTracer

__all__ = [
    "AdmissionAuditLog",
    "AuditEntry",
    "BlockStage",
    "CostProfiler",
    "Counter",
    "DEADLINE_SLACK_BUCKETS",
    "DEFAULT_SLOS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "PHASES",
    "ProfileTimer",
    "QUEUE_DEPTH_BUCKETS",
    "ROUND_UTILIZATION_BUCKETS",
    "SEEK_TIME_BUCKETS",
    "ScopedObservability",
    "SessionTimeline",
    "Slo",
    "SloMonitor",
    "Span",
    "SpanTracer",
]
