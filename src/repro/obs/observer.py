"""The observability façade: one object components report into.

:class:`Observability` bundles the three telemetry surfaces — the
:class:`~repro.obs.registry.MetricsRegistry`, the
:class:`~repro.obs.timeline.SessionTimeline`, and the
:class:`~repro.obs.audit.AdmissionAuditLog` — behind a single handle
that service layers accept as an optional parameter.  Its
:meth:`snapshot` serializes all three to one stable, sorted JSON
document (the golden-trace artifact), :meth:`diff` explains what moved
between two snapshots, and :meth:`report` renders the whole state for a
human (the ``repro obs-report`` CLI).

The default is **off**: components take ``obs=None`` and guard with a
single ``is None`` test, and ``Observability(enabled=False)`` hands out
null instruments throughout — so an unobserved run pays no measurable
cost (the ``bench_micro_ops`` acceptance bar).
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Union

from repro.errors import ParameterError
from repro.obs.audit import AdmissionAuditLog
from repro.obs.profiling import CostProfiler
from repro.obs.registry import MetricsRegistry
from repro.obs.slo import SloMonitor
from repro.obs.timeline import SessionTimeline
from repro.obs.tracing import SpanTracer

__all__ = ["Observability", "ScopedObservability"]


class Observability:
    """Bundle of registry + timeline + audit + spans + SLOs for one run.

    Parameters
    ----------
    enabled:
        When False every surface is a null recorder; snapshots are empty
        but still byte-stable.
    seed:
        Folded into the span tracer's deterministic trace ids; pass the
        scenario seed so distinct seeds get distinct id spaces.
    timeline_keep_first / timeline_every_kth / timeline_summary_sessions:
        Forwarded to :class:`SessionTimeline` (per-block sampling and
        the summary cap for large scenarios).
    tracer:
        A pre-built :class:`SpanTracer` (e.g. with block sampling or a
        strict limit); by default a full-fidelity tracer is created.
    """

    def __init__(
        self,
        enabled: bool = True,
        seed: int = 0,
        timeline_keep_first: Optional[int] = None,
        timeline_every_kth: Optional[int] = None,
        timeline_summary_sessions: Optional[int] = None,
        tracer: Optional[SpanTracer] = None,
    ):
        self.enabled = enabled
        self.registry = MetricsRegistry(enabled)
        self.timeline = SessionTimeline(
            enabled,
            keep_first=timeline_keep_first,
            every_kth=timeline_every_kth,
            summary_sessions=timeline_summary_sessions,
        )
        self.audit = AdmissionAuditLog(enabled)
        self.tracer = (
            tracer if tracer is not None
            else SpanTracer(enabled=enabled, seed=seed)
        )
        self.slo: Optional[SloMonitor] = None
        self.profiler: Optional[CostProfiler] = None
        #: A node-scoped view carries its node's id here; the root has none.
        self.node_id: Optional[str] = None
        self._sim_tracers: list = []

    @classmethod
    def for_scale(cls, seed: int = 0) -> "Observability":
        """A sampled/capped configuration for large scenarios.

        Keeps the first blocks of every session at full per-block
        fidelity, then samples every 64th block, and caps the timeline
        summary — bounding both golden-snapshot size and the tracing
        overhead on 100k-block runs, while metrics/SLO rollups still see
        every block.
        """
        obs = cls(
            seed=seed,
            timeline_keep_first=8,
            timeline_every_kth=64,
            timeline_summary_sessions=8,
            tracer=SpanTracer(
                seed=seed, block_keep_first=4, block_every_kth=64
            ),
        )
        obs.enable_slos()
        return obs

    @classmethod
    def for_profiling(cls, seed: int = 0) -> "Observability":
        """The hot-path profiling configuration: metrics + profiler on,
        timeline/audit/tracer off.

        Cost attribution wants to see every access while perturbing the
        run as little as possible; everything recorded is modeled time,
        so snapshots stay byte-stable per seed.
        """
        obs = cls(seed=seed, tracer=SpanTracer(enabled=False, seed=seed))
        obs.timeline = SessionTimeline(False)
        obs.audit = AdmissionAuditLog(False)
        obs.enable_profiler()
        return obs

    def enable_slos(self, slos=None) -> SloMonitor:
        """Attach an :class:`SloMonitor` (idempotent; default objectives
        when *slos* is None)."""
        if self.slo is None:
            from repro.obs.slo import DEFAULT_SLOS
            self.slo = SloMonitor(
                self.registry, DEFAULT_SLOS if slos is None else slos
            )
        return self.slo

    def enable_profiler(self) -> CostProfiler:
        """Attach a :class:`CostProfiler` (idempotent); drives and
        caches handed this observer *afterwards* register with it."""
        if self.profiler is None:
            self.profiler = CostProfiler()
        return self.profiler

    def scoped(self, node_id: str) -> "ScopedObservability":
        """This observer under *node_id*: hand one to each cluster node.

        Every write still lands here, once; a drive, a cache or a fault
        delay reported through the view is attributed to its node in
        the profile (``per_node``).
        """
        return ScopedObservability(self, node_id)

    def attach_sim_tracer(self, tracer) -> None:
        """Register a :class:`repro.sim.trace.Tracer` for health
        surfacing, so snapshots report its drop count instead of letting
        overflow truncate event traces silently."""
        if all(existing is not tracer for existing in self._sim_tracers):
            self._sim_tracers.append(tracer)

    def timed(self, name: str):
        """Profiling context manager on the shared registry."""
        return self.registry.timed(name)

    # -- serialization -----------------------------------------------------------

    def snapshot_dict(self, include_profile: bool = False) -> Dict:
        """The full observability state as a JSON-ready dict.

        The ``profile`` section appears only when a profiler is
        attached, so every pre-profiler golden stays byte-stable.
        """
        out = {
            "metrics": self.registry.snapshot_dict(
                include_profile=include_profile
            ),
            "timeline": self.timeline.summary_dict(),
            "audit": self.audit.as_dicts(),
            "spans": self.tracer.summary_dict(),
            "slo": (
                self.slo.summary_dict() if self.slo is not None else {}
            ),
            "trace_health": {
                "sim_events_dropped": sum(
                    t.dropped for t in self._sim_tracers
                ),
                "sim_strict": any(t.strict for t in self._sim_tracers),
                "spans_dropped": self.tracer.dropped_count,
                "spans_strict": self.tracer.strict,
            },
        }
        if self.profiler is not None:
            out["profile"] = self.profiler.summary_dict()
        return out

    def to_chrome_trace(self) -> Dict:
        """Perfetto-loadable document: spans + profile counter tracks.

        The span export is exactly :meth:`SpanTracer.to_chrome_trace`;
        when a profiler is attached its per-phase cost checkpoints ride
        along as ``"C"`` counter events on ``profile.<phase>`` tracks.
        """
        doc = self.tracer.to_chrome_trace()
        if self.profiler is not None:
            events = list(doc["traceEvents"])
            events.extend(self.profiler.chrome_counter_events())
            doc["traceEvents"] = events
        return doc

    def snapshot(self, include_profile: bool = False) -> str:
        """Stable sorted-key JSON of registry + timeline + audit.

        Byte-identical across runs with the same seed; the golden-trace
        tests commit this string verbatim.
        """
        return json.dumps(
            self.snapshot_dict(include_profile=include_profile),
            sort_keys=True,
            indent=2,
        )

    @staticmethod
    def diff(before: Union[str, Dict], after: Union[str, Dict]) -> Dict:
        """Leaf-level differences between two snapshots (see
        :meth:`MetricsRegistry.diff`)."""
        return MetricsRegistry.diff(before, after)

    # -- human rendering ---------------------------------------------------------

    def report(self, top: int = 5) -> str:
        """Operator-facing rendering of the full observability state.

        *top* bounds the profiler cost-center ranking (when a profiler
        is attached); it matches the CLI ``--top`` flag.
        """
        metrics = self.registry.snapshot_dict(include_profile=True)
        lines = ["== counters =="]
        for name, value in sorted(metrics["counters"].items()):
            lines.append(f"  {name:<36} {value}")
        lines.append("== gauges ==")
        for name, value in sorted(metrics["gauges"].items()):
            lines.append(f"  {name:<36} {value:g}")
        lines.append("== histograms ==")
        for name, data in sorted(metrics["histograms"].items()):
            lines.append(
                f"  {name}: count={data['count']} sum={data['sum']:g} "
                f"overflow={data['overflow']}"
            )
            for bound, count in zip(data["buckets"], data["counts"]):
                if count:
                    lines.append(f"    <= {bound:<12g} {count}")
        lines.append("== timers ==")
        for name, data in sorted(metrics["timers"].items()):
            lines.append(
                f"  {name:<36} calls={data['calls']} "
                f"wall={data.get('wall_seconds', 0.0):.6f}s"
            )
        lines.append("== sessions ==")
        for session_id, summary in sorted(
            self.timeline.summary_dict().items()
        ):
            stages = " ".join(
                f"{stage}={count}"
                for stage, count in sorted(summary["stages"].items())
            )
            lines.append(
                f"  {session_id:<12} {stages} "
                f"jitter={summary['interarrival_jitter_s']:.6f}s "
                f"conserved={summary['conserved']}"
            )
        lines.append("== spans ==")
        spans = self.tracer.summary_dict()
        lines.append(
            f"  total={spans['count']} open={spans['open']} "
            f"traces={spans['traces']} dropped={spans['dropped']}"
        )
        for name, count in spans["by_name"].items():
            lines.append(f"  {name:<36} {count}")
        if self.slo is not None:
            lines.append("== slo ==")
            summary = self.slo.summary_dict()
            for name, entry in sorted(summary["objectives"].items()):
                state = {True: "ok", False: "BREACH", None: "no-data"}[
                    entry["satisfied"]
                ]
                lines.append(
                    f"  {name:<24} {entry['metric']} {entry['op']} "
                    f"{entry['threshold']:g} -> {state}"
                )
        if self.profiler is not None:
            lines.append("== profile ==")
            lines.extend(self.profiler.render(top))
        lines.append("== admission audit ==")
        audit = self.audit.render()
        if audit:
            lines.extend(f"  {line}" for line in audit.splitlines())
        return "\n".join(lines)


class ScopedObservability:
    """One node's view of a shared :class:`Observability`.

    It holds no metric state: the surfaces are the parent's own (totals
    and causality must cross nodes), ``slo`` / ``profiler`` are looked up
    when used, so attaching them after scoping works, and the ``node_id``
    is all a scope adds.
    """

    def __init__(self, parent: Observability, node_id: str):
        if not node_id:
            raise ParameterError("scoped node_id must be non-empty")
        self.parent = parent
        self.node_id = node_id
        self.enabled = parent.enabled
        self.registry = parent.registry
        self.timeline = parent.timeline
        self.audit = parent.audit
        self.tracer = parent.tracer

    @property
    def slo(self) -> Optional[SloMonitor]:
        return self.parent.slo

    @property
    def profiler(self) -> Optional[CostProfiler]:
        return self.parent.profiler

    def scoped(self, node_id: str) -> "ScopedObservability":
        """Scoping is flat: a view of the parent, not of this view."""
        return self.parent.scoped(node_id)

    def attach_sim_tracer(self, tracer) -> None:
        self.parent.attach_sim_tracer(tracer)

    def timed(self, name: str):
        return self.registry.timed(name)
