"""The service recorder: the one seam between the stack and observability.

The block path (the round loop, the drive, the block cache, fault
recovery, the single-request simulators) and the request path (the media
server and its batching, the RPC channel, the storage manager, the
cluster router) report *what happened* — each fact once, to a
:class:`ServiceRecorder` — and this module alone decides which sink sees
it: registry instruments (names, buckets), profiler phases, span names
and parents, the request-id ↔ root-span binding, audit records, timeline
stages, the SLO ticks, and the ``sim.trace.Tracer`` tag strings.
:data:`EVENTS` is the declarative event → sinks table
(docs/OBSERVABILITY.md mirrors it, checked by a tooling test);
:data:`FAULTS` is the same for fault outcomes.

A component obtains its recorder once from :func:`recorder_for`, which
returns None when there is nothing to record (no observer, or a disabled
one, and no sim tracer) — so the unobserved hot path is one ``is None``
test per report site and never formats a string.  Per-block sampling
stays data on the surfaces (``SessionTimeline.keep_first/every_kth``,
``SpanTracer.block_keep_first/block_every_kth``):
``StreamState.report_at`` — set by the recorder — names the next block
index of a stream the loop should report, and it reports only those.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.obs.registry import (
    BATCH_SIZE_BUCKETS,
    DEADLINE_SLACK_BUCKETS,
    QUEUE_DEPTH_BUCKETS,
    ROUND_UTILIZATION_BUCKETS,
    SEEK_TIME_BUCKETS,
)
from repro.obs.timeline import BlockStage
from repro.sim.metrics import consumed_prefix

__all__ = ["EVENTS", "FAULTS", "ServiceRecorder", "recorder_for", "sinks"]


#: event (the :class:`ServiceRecorder` method of that name) -> (the
#: source component that reports it, its sinks as ``kind:name`` tokens).
#: A recorder built for a source registers that source's counters and
#: histograms up front (they appear in snapshots at zero); timers,
#: gauges, names with a ``<label>`` part, the fault counters and all the
#: cluster router's counters exist once first used.
EVENTS: Dict[str, Tuple[str, str]] = {
    "stream_opened": ("loop", "span:service.stream sim:admit"),
    "round_begin": (
        "loop", "histogram:service.queue_depth timer:service.round"),
    "turn_begin": ("loop", "sim:buffer-full"),
    "block_begin": (
        "loop", "span:service.block stage:enqueued stage:read-start"),
    "block_end": ("loop", "span:service.block stage:read-done stage:skipped"),
    "turn_end": ("loop", "profile:per_stream sim:playback-start"),
    "round_served": (
        "loop", "timer:service.round histogram:service.round_utilization"),
    "round_end": ("loop", "profile:checkpoint slo:round"),
    "text_completed": ("loop", "sim:text-complete"),
    "run_end": (
        "loop", "histogram:session.deadline_slack_s "
        "counter:session.blocks_delivered counter:session.blocks_skipped "
        "counter:session.deadline_misses gauge:service.rounds_run "
        "span:service.stream stage:consumed slo:final"),
    "drive_attached": ("drive", "phase:seek phase:transfer"),
    "drive_access": (
        "drive", "counter:disk.accesses histogram:disk.seek_s "
        "span:disk.access"),
    "cache_attached": ("cache", "phase:cache_lookup"),
    "cache_probe": (
        "cache", "counter:cache.hits counter:cache.misses span:cache.read"),
    "cache_evicted": ("cache", "counter:cache.evictions"),
    "fault": (
        "fault", "counter:fault.injected counter:fault.retries "
        "counter:fault.skips counter:fault.deadline_abandons "
        "counter:fault.head_failures counter:fault.recovered_reads "
        "phase:fault_recovery span:fault.retry span:fault.skip "
        "sim:fault.inject sim:fault.retry sim:fault.skip sim:fault.degrade"),
    "batch_formed": ("server", "span:server.batch"),
    "request_opened": ("server", "span:server.request"),
    "request_rejected": (
        "server", "counter:server.sessions_rejected "
        "counter:server.reject.<reason> span:server.request"),
    "cache_admitted": ("server", "audit:admit span:server.admit"),
    "admission_begun": ("server", "span:server.admit"),
    "admission_decided": ("server", "span:server.admit"),
    "batch_admitted": (
        "server", "counter:server.sessions_opened counter:server.batches "
        "histogram:server.batch_size audit:admit"),
    "verb_applied": (
        "server", "span:server.play span:server.pause span:server.resume "
        "span:server.stop"),
    "request_closed": (
        "server", "counter:server.sessions_rejected "
        "counter:server.reject.<reason> span:server.request"),
    "rpc_begun": ("rpc", "span:rpc.<method>"),
    "rpc_ended": ("rpc", "span:rpc.<method>"),
    "msm_admitted": ("msm", "span:msm.admit"),
    "msm_released": ("msm", "span:msm.release"),
    "strand_stored": ("msm", "timer:msm.store_<medium>_strand"),
    "revalidated": ("msm", "audit:revalidate"),
    "routed": (
        "cluster", "counter:server.sessions_opened "
        "counter:cluster.opens.<title> counter:cluster.routed.<node> "
        "span:cluster.request span:cluster.route"),
    "router_rejected": (
        "cluster", "counter:server.sessions_rejected "
        "counter:server.reject.<reason> counter:cluster.rejects "
        "counter:cluster.rejects.router span:cluster.request"),
    "node_rejected": (
        "cluster", "counter:cluster.rejects counter:cluster.rejects.<node> "
        "span:cluster.request"),
    "chunk_served": ("cluster", "span:cluster.serve"),
    "node_died": ("cluster", "counter:cluster.node_deaths.<node>"),
    "handed_off": (
        "cluster", "counter:cluster.handoffs_total "
        "counter:cluster.handoffs_from.<node> "
        "counter:cluster.handoffs_to.<node> "
        "counter:cluster.handoffs_stranded.<node> "
        "counter:server.sessions_rejected counter:server.reject.<reason> "
        "counter:cluster.rejects counter:cluster.rejects.<node> "
        "span:cluster.handoff span:cluster.request"),
    "session_closed": ("cluster", "span:cluster.request"),
    "handoffs_scored": (
        "cluster", "counter:cluster.handoffs_clean "
        "counter:cluster.handoffs_clean.<node> slo:final"),
}
HISTOGRAMS: Dict[str, Tuple[float, ...]] = {
    "session.deadline_slack_s": DEADLINE_SLACK_BUCKETS,
    "service.queue_depth": QUEUE_DEPTH_BUCKETS,
    "service.round_utilization": ROUND_UTILIZATION_BUCKETS,
    "disk.seek_s": SEEK_TIME_BUCKETS,
    "server.batch_size": BATCH_SIZE_BUCKETS,
}


def sinks(event: str, kind: str) -> List[str]:
    """The names of *event*'s sinks of one *kind* (``span``, ``phase``...)."""
    tokens = (token.partition(":") for token in EVENTS[event][1].split())
    return [name for token_kind, _, name in tokens if token_kind == kind]


#: The span each traceable access event opens (:meth:`span_begin`).
_TRACED = {
    event: sinks(event, "span")[0] for event in ("drive_access", "cache_probe")
}
_INJECT, _SKIP = "fault.inject", "fault.skip"
#: fault outcome -> (sim-trace events as (tag, detail template), counters,
#: span name, skip reason); a retry span covers the backoff window.
FAULTS: Dict[str, tuple] = {
    "transient": (
        ((_INJECT, "transient at slot {slot} (attempt {attempt})"),),
        ("fault.injected",), "", ""),
    "budget": (
        ((_SKIP, "slot {slot}: retry budget {budget} exhausted"),),
        ("fault.skips",), _SKIP, "budget"),
    "deadline": (
        ((_SKIP, "slot {slot}: retry would miss deadline {deadline:.6f}"),),
        ("fault.skips", "fault.deadline_abandons"), _SKIP, "deadline"),
    "retry": (
        (("fault.retry", "slot {slot}: attempt {attempt} of {budget}"),),
        ("fault.retries",), "fault.retry", ""),
    "defect": (
        ((_INJECT, "media defect at slot {slot}"),
         (_SKIP, "slot {slot}: media defect is permanent")),
        ("fault.injected", "fault.skips"), _SKIP, "defect"),
    "head": (
        ((_INJECT, "head {head} failure at slot {slot}"),),
        ("fault.injected", "fault.head_failures"), "", ""),
    "recovered": (
        (("fault.degrade", "slot {slot}: recovered after {attempt} {retries}"),),
        ("fault.recovered_reads",), "", ""),
}

#: "No block of this stream is sampled again" (past any real index).
NEVER = 1 << 62


def _next_sampled(index: int, keep: Optional[int], every: Optional[int]) -> int:
    """Smallest sampled block index >= *index* under one surface's
    ``(keep_first, every_kth)`` (both None: every block)."""
    if keep is None or index < keep:
        return index
    return NEVER if every is None else index + (-index % every)


def recorder_for(obs, source: str, sim=None) -> Optional["ServiceRecorder"]:
    """The recorder a *source* component reports into, or None.

    *obs* is an :class:`~repro.obs.Observability`, a node-scoped view of
    one, or None; *sim* an optional :class:`repro.sim.trace.Tracer`
    (registered with *obs* so snapshots surface its drop count).
    """
    if obs is not None and sim is not None:
        obs.attach_sim_tracer(sim)
    if sim is not None and not sim.enabled:
        sim = None
    if obs is not None and not obs.enabled:
        obs = None
    if obs is None and sim is None:
        return None
    return ServiceRecorder(obs, source, sim)


class ServiceRecorder:
    """Fans each reported fact out to the sinks :data:`EVENTS` names."""

    def __init__(self, obs, source: str, sim=None):
        self._obs = obs
        self._sim = sim
        self._subject = ""
        self._head_lost = False
        #: Open spans this recorder closes later: stream id -> its
        #: ``service.stream`` (loop), session id -> its root (cluster).
        self._held: Dict[str, object] = {}
        self._round_timer = self._admit = None
        self._m: Dict[str, object] = {}
        self._timeline = self._spans = self._slo = self._prof = None
        #: The timeline's (keep_first, every_kth); it also gates which
        #: blocks the run-end walk scores.
        self._tl_gate: Tuple[Optional[int], Optional[int]] = (None, None)
        #: The node *obs* is scoped to, read once (None outside a cluster):
        #: the profile's ``per_node`` key for what attaches or faults here.
        self._node: Optional[str] = None if obs is None else obs.node_id
        if obs is None:
            return
        # The router's counters exist once first used: a run without a
        # reject has no ``cluster.rejects`` key.
        if source != "cluster":
            registry = obs.registry
            for event, (reporter, _sinks) in EVENTS.items():
                if reporter == source:
                    for name in sinks(event, "counter"):
                        if "<" not in name:
                            self._m[name] = registry.counter(name)
                    for name in sinks(event, "histogram"):
                        self._m[name] = registry.histogram(name, HISTOGRAMS[name])
        if obs.timeline.enabled:
            self._timeline = obs.timeline
            self._tl_gate = (obs.timeline.keep_first, obs.timeline.every_kth)
        if obs.tracer.enabled:
            self._spans = obs.tracer
        self._slo = obs.slo
        self._prof = obs.profiler

    def _log(self, time: float, tag: str, subject: str, detail: str, *args) -> None:
        if self._sim is not None:
            self._sim.emit(time, tag, subject, detail % args)

    def _count(self, name: str, amount: int = 1) -> None:
        self._obs.registry.counter(name).inc(amount)

    def _span(self, name, time, parent=None, session=None, attrs=None,
              end=None, status="ok"):
        """Open span *name* (None when untraced or dropped); given *end*,
        close it there with *status*."""
        spans = self._spans
        if spans is None:
            return None
        span = spans.start_span(name, time, parent, session, attrs)
        if end is not None:
            spans.end_span(span, end, status)
        return span

    def _report_from(self, stream, index: int) -> None:
        """Point *stream* at the smallest block index >= *index* that some
        per-block surface records (:data:`NEVER` when none does)."""
        wanted = NEVER
        if self._timeline is not None:
            wanted = _next_sampled(index, *self._tl_gate)
        spans = self._spans
        if spans is not None:
            wanted = min(wanted, _next_sampled(
                index, spans.block_keep_first, spans.block_every_kth
            ))
        stream.report_at = wanted

    # -- the round loop ----------------------------------------------------------

    def stream_opened(self, stream, time: float, admitted_round=None) -> None:
        """A stream joined the service (mid-run when *admitted_round*).  Its
        span continues the server-side root span bound for the request (or
        the wire context it carries), else roots a trace keyed by its id."""
        if admitted_round is not None:
            self._log(time, "admit", stream.request_id, "round %d", admitted_round)
        self._report_from(stream, stream.next_fetch)
        tracer = self._spans
        if tracer is None:
            return
        parent = stream.trace
        if parent is None:
            parent = tracer.context_for(stream.request_id)
        span = tracer.start_span(
            "service.stream", time, parent=parent, session=stream.request_id,
            attrs={"blocks": len(stream.fetches)},
        )
        if span is not None:
            self._held[stream.request_id] = span
            stream.trace = span

    def round_begin(self, active: int) -> Tuple[bool, bool]:
        """A round starts over *active* streams; returns whether each
        turn's begin (the trace log consumes it) and end (the trace log
        and the profiler do) should be reported too."""
        if self._obs is not None:
            self._m["service.queue_depth"].observe(active)
            self._round_timer = self._obs.timed("service.round")
            self._round_timer.__enter__()
        logged = self._sim is not None
        return logged, logged or self._prof is not None

    def turn_begin(self, stream, time: float, round_number: int, quota: int) -> None:
        """*stream*'s turn starts with *quota* blocks of buffer room."""
        self._subject = stream.request_id
        if quota == 0:
            self._log(time, "buffer-full", stream.request_id, "round %d", round_number)

    def block_begin(self, stream, index, time, round_number, has_slot: bool):
        """A block the recorder asked for (``stream.report_at``) starts
        service; returns its span (or None)."""
        self._report_from(stream, index + 1)
        timeline = self._timeline
        if timeline is not None:
            timeline.record(time, stream.request_id, index, BlockStage.ENQUEUED)
            if has_slot:
                timeline.record(
                    time, stream.request_id, index, BlockStage.READ_START
                )
        spans = self._spans
        if spans is None or not spans.samples_block(index):
            return None
        return spans.start_span(
            "service.block", time, parent=stream.trace, session=stream.request_id,
            attrs={"block": index, "round": round_number},
        )

    def block_end(self, stream, index, span, time, skipped: bool) -> None:
        """The block begun with *span* is in the buffer (or was skipped)."""
        if span is not None:
            self._spans.end_span(span, time, "skipped" if skipped else "ok")
        timeline = self._timeline
        if timeline is not None:
            timeline.record(time, stream.request_id, index, BlockStage.READ_DONE)
            if skipped:
                timeline.record(time, stream.request_id, index, BlockStage.SKIPPED)

    def turn_end(self, stream, time, cost, delivered, started: bool) -> None:
        """The turn moved *delivered* blocks in *cost* seconds; *started*
        when it started the playback clock."""
        if self._prof is not None:
            self._prof.attribute_stream(stream.request_id, cost, delivered)
        if started:
            self._log(
                time, "playback-start", stream.request_id,
                "after %d blocks", len(stream.ready),
            )

    def round_served(self, start, time, budget) -> None:
        """Every stream had its turn: *budget* is the tightest Eq.-11
        ``k_i * T_i`` among those served (inf when none moved a block)."""
        if self._round_timer is not None:
            self._round_timer.__exit__(None, None, None)
            self._round_timer = None
        if self._obs is not None and 0 < budget < float("inf"):
            self._m["service.round_utilization"].observe((time - start) / budget)

    def round_end(self, time, round_number) -> None:
        """The round, any idle wait for buffer room included, is over."""
        if self._prof is not None:
            self._prof.checkpoint(time)
        if self._slo is not None:
            self._slo.on_round(time, round_number)

    def text_completed(self, request_id: str, time: float, blocks: int) -> None:
        """A best-effort text request finished inside the round slack."""
        self._log(time, "text-complete", request_id, "%d blocks", blocks)

    def run_end(self, streams, time, rounds_run) -> None:
        """Score the completed run, stream by stream."""
        if self._obs is not None:
            for stream in streams:
                self._score(stream)
            self._obs.registry.gauge("service.rounds_run").set(rounds_run)
        if self._slo is not None:
            self._slo.finalize(time)

    def _score(self, stream) -> None:
        """One walk over the stream's sampled delivery indexes.

        Consumption times are derivable only after the fact (playback
        cascades over the delivery schedule).  A continuous stream never
        stalled on a late block, so block i finished playing at exactly
        ``deadline_i + duration_i``; a stalled one needs the running fold
        of :func:`~repro.sim.metrics.consumed_prefix` — the two are not
        bit-equal, so both definitions of *end* stay.
        """
        timeline, session = self._timeline, stream.request_id
        span = self._held.pop(session, None)
        start = stream.clock_start
        if start is None:
            if span is not None:
                self._spans.end_span(span, span.start, "unstarted")
            return
        ready, durations = stream.ready, stream.fetches.durations
        offsets, skipped = stream.offsets, stream.skipped_indices
        continuous = not skipped and not stream.metrics.misses
        observe_slack = self._m["session.deadline_slack_s"].observe
        elapsed, never = start, float("inf")
        pos = 0
        upcoming = _next_sampled(0, *self._tl_gate)
        while upcoming < len(ready):
            index = upcoming
            upcoming = _next_sampled(index + 1, *self._tl_gate)
            deadline = start + offsets[index]
            if continuous:
                end = deadline + durations[index]
            else:
                end = elapsed = consumed_prefix(
                    ready[pos:index + 1], durations[pos:index + 1], elapsed, never
                )[1]
                pos = index + 1
                if index in skipped:
                    continue
            if timeline is not None:
                timeline.record(end, session, index, BlockStage.CONSUMED)
            observe_slack(deadline - ready[index])
        if continuous:
            last = len(ready) - 1
            elapsed = start + offsets[last] + durations[last]
        else:
            elapsed = consumed_prefix(ready[pos:], durations[pos:], elapsed, never)[1]
        self._m["session.blocks_delivered"].inc(len(ready) - len(skipped))
        self._m["session.blocks_skipped"].inc(len(skipped))
        if stream.metrics.misses:
            self._m["session.deadline_misses"].inc(stream.metrics.misses)
        if span is not None:
            status = "ok" if stream.metrics.continuous else "degraded"
            self._spans.end_span(span, elapsed, status)

    # -- drive, cache, fault recovery, single-request scoring --------------------

    def drive_attached(self, drive) -> None:
        """*drive* reports here from now on: the profile reads its
        positioning and transfer seconds off its own ``DriveStats``."""
        if self._prof is not None:
            self._prof.watch_drive(drive, self._node)

    def drive_access(self, seek: float) -> None:
        """One mechanism access that spent *seek* seconds seeking."""
        self._m["disk.accesses"].inc()
        self._m["disk.seek_s"].observe(seek)

    def cache_attached(self, cached) -> None:
        """The cache front end *cached* reports here from now on: the
        profile reads its probes off its own ``CacheStats``."""
        if self._prof is not None:
            self._prof.watch_cache(cached, self._node)

    def cache_probe(self, hit: bool) -> None:
        """One residency probe."""
        self._m["cache.hits" if hit else "cache.misses"].inc()

    def cache_evicted(self, count: int) -> None:
        """An insert pushed *count* resident slots out."""
        self._m["cache.evictions"].inc(count)

    def span_begin(self, event: str, now: float, parent, slot: int):
        """The traced form of *event* (``drive_access`` / ``cache_probe``)
        starts on *slot* under *parent*; returns its span."""
        return self._spans.start_span(
            _TRACED[event], now, parent=parent, attrs={"slot": slot}
        )

    def span_end(self, span, time: float, status: str = "ok") -> None:
        """Close a span handed out by :meth:`span_begin`."""
        self._spans.end_span(span, time, status)

    def fault(self, kind, slot, start, end, parent=None, cost=None, **detail) -> None:
        """One fault-recovery outcome (a :data:`FAULTS` key) over ``[start,
        end]``; *cost* is the modeled delay it added, *parent* the traced
        block's span."""
        events, counters, span_name, reason = FAULTS[kind]
        if self._sim is not None:
            retries = "retry" if detail.get("attempt") == 1 else "retries"
            for tag, template in events:
                text = template.format(slot=slot, retries=retries, **detail)
                self._sim.emit(end, tag, self._subject, text)
            if kind == "head" and not self._head_lost:
                # The service degrades once, however often the dead head
                # is tried again afterwards.
                self._head_lost = True
                self._sim.emit(
                    end, "fault.degrade", "service",
                    f"head {detail['head']} lost; degraded service, "
                    "admission revalidation requested",
                )
        if self._obs is not None:
            for name in counters:
                self._count(name)
        if cost is not None and self._prof is not None:
            self._prof.fault(cost, self._node)
        if span_name and parent is not None:
            extra = {"reason": reason} if reason else {"attempt": detail["attempt"]}
            span = self._spans.start_span(
                span_name, start, parent=parent, attrs={"slot": slot, **extra}
            )
            self._spans.end_span(span, end)

    # -- the request path: media server and batching -----------------------------

    def _root(self, request_id: str):
        """The open root span bound to *request_id* (None when untraced)."""
        spans = self._spans
        return None if spans is None else spans.context_for(request_id)

    def _count_reject(self, reason: str) -> None:
        # The per-reason counters feed the reject-rate SLOs.
        self._count("server.sessions_rejected")
        self._count(f"server.reject.{reason}")

    def batch_formed(self, rope: str, size: int, start, end) -> None:
        """serve() grouped its opens: one batch (of any *size*) covering
        leader arrival → last member arrival."""
        self._span("server.batch", start, attrs={"rope": rope, "size": size}, end=end)

    def request_opened(self, request_id: str, time: float, **attrs) -> None:
        """An admitted member's MRS request exists: its root span opens,
        bound to *request_id* — where the stream, the verbs, the release
        and the close find it."""
        span = self._span("server.request", time, session=request_id, attrs=attrs)
        if span is not None:
            self._spans.bind(request_id, span)

    def request_rejected(self, session_id, time, rope: str, reason: str) -> None:
        """An open was refused for *reason* (a ``RejectReason`` value)."""
        self._count_reject(reason)
        self._span(
            "server.request", time, session=session_id,
            attrs={"rope": rope, "reject": reason}, end=time, status="rejected",
        )

    def cache_admitted(self, request_id, time, rope: str, slots: int) -> None:
        """Every planned slot is resident and pinned: residency stands in
        for disk budget and the controller is bypassed."""
        self._obs.audit.record(
            "admit", f"cache(rope={rope})", "resident >= planned",
            {"resident": float(slots), "planned": float(slots)},
            satisfied=True,
            detail=f"{slots} slot(s) resident and pinned; "
            "no disk-round budget consumed",
        )
        self._span(
            "server.admit", time, parent=self._root(request_id),
            attrs={"path": "cache", "slots": slots}, end=time,
        )

    def admission_begun(self, request_id, time, path: str) -> Dict[str, object]:
        """The server asks the controller for a slot (*path*: ``controller``
        on open, ``resume`` after a destructive pause).  Returns the
        keywords that carry the span context over the RPC boundary."""
        self._admit = span = self._span(
            "server.admit", time, parent=self._root(request_id),
            session=request_id, attrs={"path": path},
        )
        return {} if span is None else {"trace": span.wire(time)}

    def admission_decided(self, time: float, outcome: str = "ok") -> None:
        """The controller answered: ``ok``, ``rejected`` or ``requeued``."""
        if self._admit is not None:
            self._spans.end_span(self._admit, time, outcome)
            self._admit = None

    def batch_admitted(self, rope, size, opened, leader, cached, requeues) -> None:
        """A batch of *size* holds its one physical stream: the *opened*
        members (those allowed to play) share session *leader*'s reads."""
        self._count("server.sessions_opened", opened)
        self._count("server.batches")
        self._m["server.batch_size"].observe(opened)
        self._obs.audit.record(
            "admit", f"batch(rope={rope},n={size})",
            "physical_streams <= batch_size",
            {
                "batch_size": float(size), "physical_streams": 1.0,
                "cache_admitted": float(cached), "requeues": float(requeues),
            },
            satisfied=True,
            detail=f"leader {leader} "
            f"({'cache' if cached else 'controller'}-admitted), "
            f"{size - 1} follower(s) share its reads",
        )

    def verb_applied(self, request_id, verb: str, time, status: str = "ok") -> None:
        """A lifecycle verb (play / pause / resume / stop) took effect."""
        self._span(
            f"server.{verb}", time, parent=self._root(request_id),
            session=request_id, end=time, status=status,
        )

    def release_carry(self, request_id: str) -> Dict[str, object]:
        """The keywords that carry *request_id*'s root context — stamped
        with the latest time its trace reached — over the RPC boundary."""
        root = self._root(request_id)
        if root is None:
            return {}
        latest = self._spans.latest_end(root.trace_id, root.start)
        return {"trace": root.wire(latest)}

    def request_closed(self, request_id, time, status: str, reject=None) -> None:
        """The request is over (*reject*: why a resume was refused); its
        root closes at the latest time its trace reached."""
        if reject is not None:
            self._count_reject(reject)
        root = self._root(request_id)
        if root is not None:
            latest = self._spans.latest_end(root.trace_id, root.start)
            self._spans.end_span(root, max(time, latest), status)
            self._spans.unbind(request_id)

    # -- the request path: RPC channel and storage manager -----------------------

    def _continue(self, name: str, trace, attrs=None, status=None):
        """Continue a wire *trace* context as span *name* at the time it was
        sent (closed there too, given a *status*)."""
        time = float(trace.get("time", 0.0))
        end = None if status is None else time
        return self._span(name, time, trace, attrs=attrs, end=end, status=status)

    def rpc_begun(self, channel: str, method: str, kwargs: Dict):
        """A call carrying a ``trace`` context crosses *channel*.  Returns
        (its span, the keywords to forward): the callee receives the RPC
        span's own context, so the caller's span parents the RPC span,
        which parents whatever the callee opens."""
        span = self._continue(f"rpc.{method}", kwargs["trace"], {"channel": channel})
        if span is None:
            return None, kwargs
        return span, {**kwargs, "trace": span.wire(span.start)}

    def rpc_ended(self, span, failed: bool = False) -> None:
        """The call begun with *span* returned (or raised)."""
        self._spans.end_span(span, span.start, "error" if failed else "ok")

    def msm_admitted(self, trace, request_id=None, error=None) -> None:
        """The storage manager ran admission for a traced call: admitted
        as *request_id*, or refused with *error*."""
        if error is None:
            self._continue("msm.admit", trace, {"request_id": request_id}, "ok")
        else:
            self._continue("msm.admit", trace, status=type(error).__name__)

    def msm_released(self, trace) -> None:
        """The storage manager released a slot for a traced call."""
        self._continue("msm.release", trace, status="ok")

    def strand_stored(self, medium: str):
        """A *medium* strand is being stored; times the ``with`` body."""
        return self._obs.timed(f"msm.store_{medium}_strand")

    def revalidated(self, heads_lost, surviving, total, n_max, cumulative) -> None:
        """Admission was revalidated after a head loss.  The logged
        inequality is the liveness condition the degrade path branches
        on: with ``surviving >= 1`` the server keeps admitting against the
        shrunk *n_max*; below it, admission freezes."""
        self._obs.audit.record(
            "revalidate", f"degraded(heads={surviving}/{total})",
            "surviving >= 1",
            {
                "heads_lost": float(heads_lost), "surviving": float(surviving),
                "total": float(total), "n_max": float(n_max),
            },
            satisfied=surviving >= 1,
            detail=f"degraded n_max={n_max} "
            f"(cumulative heads lost: {cumulative})",
        )

    # -- the request path: cluster router ----------------------------------------

    def _cluster_reject(self, where: str, reason=None) -> None:
        """A cluster session was lost at *where* (``router`` or a node id);
        *reason* unless that node's server already counted the refusal."""
        if reason is not None:
            self._count_reject(reason)
        self._count("cluster.rejects")
        self._count(f"cluster.rejects.{where}")

    def routed(self, session_id, time, title, client, node) -> None:
        """The router placed a session on *node*; its root span opens."""
        self._count("server.sessions_opened")
        self._count(f"cluster.opens.{title}")
        self._count(f"cluster.routed.{node}")
        root = self._span(
            "cluster.request", time, session=session_id,
            attrs={"title": title, "client": client},
        )
        self._span("cluster.route", time, root, attrs={"node": node}, end=time)
        if root is not None:
            self._held[session_id] = root

    def router_rejected(self, session_id, time, title, reason: str) -> None:
        """The router refused an open no node ever saw."""
        self._cluster_reject("router", reason)
        self._span(
            "cluster.request", time, session=session_id,
            attrs={"title": title, "reject": reason}, end=time, status="rejected",
        )

    def node_rejected(self, session_id, node, end: float) -> None:
        """*node*'s server refused a chunk of a routed session."""
        self._cluster_reject(node)
        self.session_closed(session_id, end, "rejected")

    def chunk_served(self, session_id, node, chunk, start, end, glitched) -> None:
        """*node* played one chunk of the session (*glitched*: with a miss
        or a skip)."""
        root = self._held.get(session_id)
        if root is not None:
            self._span(
                "cluster.serve", start, root,
                attrs={"node": node, "chunk": chunk}, end=end,
                status="degraded" if glitched else "ok",
            )

    def node_died(self, node: str) -> None:
        """The fault plan killed *node* at a chunk boundary."""
        self._count(f"cluster.node_deaths.{node}")

    def handed_off(self, session_id, time, chunk, source, target, end, reject=None):
        """A dead node's session moved from *source* to *target* at *chunk*
        — or was stranded (*target* None, *reject* the reason; its root
        then closes at *end*)."""
        self._count("cluster.handoffs_total")
        self._count(f"cluster.handoffs_from.{source}")
        if reject is None:
            self._count(f"cluster.handoffs_to.{target}")
        else:
            self._cluster_reject(source, reject)
            self._count(f"cluster.handoffs_stranded.{source}")
        root = self._held.get(session_id)
        if root is not None:
            self._span(
                "cluster.handoff", time, root,
                attrs={"from": source, "to": target, "chunk": chunk}, end=time,
                status="ok" if reject is None else "stranded",
            )
        if reject is not None:
            self.session_closed(session_id, end, "rejected")

    def session_closed(self, session_id, end: float, status: str) -> None:
        """The cluster session is over; its root closes at *end*."""
        root = self._held.pop(session_id, None)
        if root is not None:
            self._spans.end_span(root, end, status)

    def handoffs_scored(self, clean_targets, horizon: float) -> None:
        """The run is over: *clean_targets* names the node each handoff
        that resumed without a glitch landed on."""
        if clean_targets:
            self._count("cluster.handoffs_clean", len(clean_targets))
        for node in clean_targets:
            self._count(f"cluster.handoffs_clean.{node}")
        if self._obs.slo is not None:
            self._obs.slo.finalize(horizon)
