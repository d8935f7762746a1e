"""The five workloads: seeded inputs, one stack each, ``repro.api`` only.

Every workload is closed-loop and single-threaded: the benchmark
process is the one client, and simulated arrival times are input data,
not host timing.  A workload has four steps, which the harness times
apart: ``params`` (sizes), ``inputs`` (everything the seed decides,
generated before any clock starts), ``setup`` (a fresh stack: its cost
is ``setup_s``), and ``run`` (the timed calls into the program, then
untimed checks folded into an :class:`Outcome`).

The amount of work is the same for every seed — the seed decides
order, arrival jitter, victims and edit positions — so a throughput
read at one seed compares with one read at another.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import (
    ClusterServeResult,
    Media,
    OpenSessionRequest,
    PauseRequest,
    PlayRequest,
    RejectReason,
    ResumeRequest,
    ServeResult,
    SessionState,
    StopRequest,
)

from bench import stack
from bench.trace import Tracer

VIEWER = "viewer"


@dataclass
class Outcome:
    """What one repetition did, as counted from the program's answers."""

    offered: int = 0
    admitted: int = 0
    rejects: Dict[str, int] = field(default_factory=dict)
    continuous: int = 0
    blocks: int = 0
    misses: int = 0
    skips: int = 0
    rounds: int = 0
    k_used: List[int] = field(default_factory=list)
    batches: int = 0
    cache_admitted: int = 0
    session_chunks: int = 0
    startup: List[float] = field(default_factory=list)
    #: One row per session answered: who, what, where, how it went.
    sessions: List[Tuple] = field(default_factory=list)
    handoffs: int = 0
    handoffs_clean: int = 0
    nodes_killed: int = 0
    #: Denominator of ``capacity_efficiency`` and how it was derived.
    bound: int = 0
    bound_detail: Dict[str, int] = field(default_factory=dict)
    #: Simulated seconds the served epochs span (for drive utilisation).
    sim_span_s: float = 0.0
    api_calls: int = 0
    call_errors: int = 0
    unexpected_rejects: int = 0
    lost_or_duplicated: int = 0
    recorded_blocks: int = 0
    edits: int = 0
    repair_blocks: int = 0
    segments: int = 0
    ropes_measured: int = 0
    snapshot_bytes: int = 0
    occupancy_peak: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    # Host time (never part of the digest): seconds as measured, and the
    # host's slowdown against the reference speed around each stretch.
    run_s: float = 0.0
    run_slowdown: float = 1.0
    record_s: float = 0.0
    edit_s: float = 0.0
    snapshot_s: float = 0.0
    snapshot_slowdown: float = 1.0
    open_ns: List[int] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        """Every API call plus every offered session."""
        return self.api_calls + self.offered

    @property
    def failed(self) -> int:
        """Calls that raised, sessions that glitched or went missing,
        and rejects whose typed reason the workload does not expect."""
        return (
            self.call_errors
            + (self.admitted - self.continuous)
            + self.lost_or_duplicated
            + self.unexpected_rejects
        )

    def sim(self) -> Dict[str, object]:
        """The simulated statistics: a pure function of (workload, seed)."""
        return {
            "offered": self.offered,
            "admitted": self.admitted,
            "rejects": dict(sorted(self.rejects.items())),
            "continuous": self.continuous,
            "blocks": self.blocks,
            "misses": self.misses,
            "skips": self.skips,
            "rounds": self.rounds,
            "k_used": self.k_used,
            "batches": self.batches,
            "cache_admitted": self.cache_admitted,
            "startup": self.startup,
            "sessions": sorted(self.sessions),
            "handoffs": self.handoffs,
            "handoffs_clean": self.handoffs_clean,
            "bound": self.bound,
            "sim_span_s": self.sim_span_s,
            "recorded_blocks": self.recorded_blocks,
            "edits": self.edits,
            "repair_blocks": self.repair_blocks,
            "segments": self.segments,
            "counters": dict(sorted(self.counters.items())),
        }

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.violations.append(message)

    def note_session(self, status) -> None:
        self.sessions.append((
            status.client_id, status.rope_id, status.node_id or "",
            status.state.value, status.blocks_delivered, status.misses,
            status.skips, status.startup_latency, status.handoffs,
        ))

    def note_reject(
        self, reason: Optional[RejectReason],
        expected: Optional[RejectReason],
    ) -> None:
        name = reason.value if reason is not None else "untyped"
        self.rejects[name] = self.rejects.get(name, 0) + 1
        if reason is None or reason is not expected:
            self.unexpected_rejects += 1

    def fold_epoch(self, result: ServeResult, block_seconds: float) -> None:
        """Fold one MediaServer epoch: rounds, k, batches, and the check
        that each session got exactly the blocks its sequence lists."""
        self.rounds += result.rounds
        self.batches += result.batches
        if result.k_used and result.k_used not in self.k_used:
            self.k_used = sorted(self.k_used + [result.k_used])
        ids = [status.session_id for status in result.statuses]
        self.check(len(ids) == len(set(ids)), "session id listed twice")
        span = 0.0
        for status in result.statuses:
            sequence = result.block_sequences.get(status.session_id)
            if sequence is None:
                continue
            self.session_chunks += 1
            stored = sum(1 for slot in sequence if slot is not None)
            self.check(
                status.blocks_delivered + status.skips == stored,
                f"{status.session_id}: {status.blocks_delivered} blocks "
                f"delivered but its sequence lists {stored}",
            )
            span = max(
                span, status.startup_latency + stored * block_seconds
            )
        self.sim_span_s += span

    def fold_server(
        self,
        result: ServeResult,
        offered: int,
        block_seconds: float,
        expected_reject: Optional[RejectReason] = None,
    ) -> None:
        """Fold a ``MediaServer.serve`` of *offered* auto-play opens."""
        self.offered += offered
        self.fold_epoch(result, block_seconds)
        self.check(
            len(result.statuses) == offered,
            f"{offered} sessions offered, {len(result.statuses)} answered",
        )
        for response in result.rejects:
            self.note_reject(response.reject, expected_reject)
        rejected = 0
        for status in result.statuses:
            self.note_session(status)
            if status.state is SessionState.REJECTED:
                rejected += 1
                continue
            self.admitted += 1
            self.blocks += status.blocks_delivered
            self.misses += status.misses
            self.skips += status.skips
            self.cache_admitted += status.cache_admitted
            self.startup.append(status.startup_latency)
            if status.state is not SessionState.COMPLETED:
                self.lost_or_duplicated += 1
            elif not (status.misses or status.skips):
                self.continuous += 1
        self.check(
            rejected == len(result.rejects),
            "rejected statuses and reject responses disagree",
        )

    def fold_cluster(
        self,
        result: ClusterServeResult,
        offered: int,
        block_seconds: float,
        expected_reject: Optional[RejectReason],
    ) -> None:
        """Fold a ``MediaCluster.serve``: sessions, handoffs, node epochs."""
        self.offered += offered
        ids = [status.session_id for status in result.statuses]
        self.check(len(ids) == len(set(ids)), "session id listed twice")
        self.check(
            len(ids) == offered,
            f"{offered} sessions offered, {len(ids)} answered",
        )
        for response in result.rejects:
            self.note_reject(response.reject, expected_reject)
        admitted_ids = {sid for sid, _node in result.admission_order}
        rejected = 0
        for status in result.statuses:
            self.note_session(status)
            if status.session_id not in admitted_ids:
                rejected += 1
                self.check(
                    status.state is SessionState.REJECTED,
                    f"{status.session_id} never admitted yet not rejected",
                )
                continue
            self.admitted += 1
            self.blocks += status.blocks_delivered
            self.misses += status.misses
            self.skips += status.skips
            self.cache_admitted += status.cache_admitted
            self.startup.append(status.startup_latency)
            if status.state is SessionState.COMPLETED:
                if not (status.misses or status.skips):
                    self.continuous += 1
            elif status.state is not SessionState.REJECTED:
                self.lost_or_duplicated += 1
        self.check(
            self.admitted + rejected == offered,
            "offered != admitted + rejected",
        )
        self.handoffs += len(result.handoffs)
        self.handoffs_clean += result.handoffs_clean
        self.nodes_killed += sum(1 for node in result.nodes if not node.alive)
        node_blocks = 0
        for node in result.per_node:
            node_blocks += node.blocks_delivered
            for epoch in node.results:
                self.fold_epoch(epoch, block_seconds)
        self.check(
            node_blocks == self.blocks,
            f"nodes delivered {node_blocks} blocks, sessions received "
            f"{self.blocks}",
        )


def apportion(total: int, weights: Sequence[float]) -> List[int]:
    """Split *total* by *weights* (largest remainder): exact demand."""
    scale = total / sum(weights)
    shares = [weight * scale for weight in weights]
    counts = [math.floor(share) for share in shares]
    by_remainder = sorted(
        range(len(weights)), key=lambda i: (counts[i] - shares[i], i)
    )
    for index in by_remainder[: total - sum(counts)]:
        counts[index] += 1
    return counts


def nearest_rank(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile: a member of *values*, so it repeats."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


class Workload:
    """Base: subclasses fill in the four steps."""

    name = ""
    #: Typed reject the workload's overload is expected to produce.
    expected_reject: Optional[RejectReason] = None
    #: Misses are a correctness violation here, not a counted failure.
    fault_free = True

    def params(self, smoke: bool) -> Dict[str, object]:
        raise NotImplementedError

    def inputs(self, seed: int, params: Dict[str, object]):
        raise NotImplementedError

    def setup(self, inputs, params: Dict[str, object], observed: bool = True):
        raise NotImplementedError

    def run(self, built, inputs, params, tracer: Tracer) -> Outcome:
        raise NotImplementedError

    def finish(self, out: Outcome, built) -> Outcome:
        """Attach the run's counters: totals now minus totals at the end
        of set-up (``Outcome.counters`` holds those on entry); peaks and
        levels are taken as they stand."""
        before, after = out.counters, stack.counters(built)
        out.counters = {
            key: value if key in stack.LEVELS else value - before[key]
            for key, value in after.items()
        }
        out.counters["fs.occupancy_peak"] = max(
            out.occupancy_peak, after["fs.occupancy_peak"]
        )
        if self.fault_free:
            out.check(
                out.misses == 0 and out.skips == 0,
                f"{out.misses} misses / {out.skips} skips on a "
                "fault-free workload",
            )
        return out


# -- cluster workloads -----------------------------------------------------------


def catalog_demand(
    seed: int, titles: int, opens: int, window: float
) -> List[Tuple[str, str, float]]:
    """(client, title, arrival) for *opens* sessions of Zipf(1) demand.

    The demand vector is the exact Zipf apportionment of *opens*; the
    seed shuffles who asks for what and when, inside half the batching
    window so each node sees a title's viewers as one batch.
    """
    rng = random.Random(seed)
    counts = apportion(opens, stack.zipf_weights(titles))
    wanted = [
        f"T{rank:02d}"
        for rank, count in enumerate(counts, start=1)
        for _ in range(count)
    ]
    rng.shuffle(wanted)
    return [
        (f"client-{index}", title, rng.uniform(0.0, window / 2.0))
        for index, title in enumerate(wanted)
    ]


class ClusterWorkload(Workload):
    """``MediaCluster.serve`` over a warmed, placed, Zipf catalog."""

    observed = False

    def inputs(self, seed, params):
        return {
            "seed": seed,
            "demand": catalog_demand(
                seed, params["titles"], params["opens"], 0.25
            ),
        }

    def setup(self, inputs, params, observed=True):
        kill = params.get("kill")
        return stack.build_cluster(
            nodes=params["nodes"],
            titles=params["titles"],
            seconds=params["seconds"],
            per_node_streams=params["per_node_streams"],
            min_replicas=2,
            cache_blocks=params["cache_blocks"],
            viewers=[client for client, _title, _at in inputs["demand"]],
            kill=tuple(kill) if kill else None,
            observed=self.observed and observed,
            seed=inputs["seed"],
        )

    def run(self, built, inputs, params, tracer):
        out = Outcome(counters=stack.counters(built))
        requests = [
            OpenSessionRequest(client_id=client, rope_id=title, arrival=at)
            for client, title, at in inputs["demand"]
        ]
        with tracer.region("run") as timed:
            result = built.cluster.serve(requests, chunks=params["chunks"])
        out.run_s, out.run_slowdown = timed.seconds, timed.slowdown
        out.api_calls = 1
        if built.obs is not None:
            with tracer.region("snapshot") as timed:
                snapshot = built.obs.snapshot(include_profile=True)
            out.snapshot_s = timed.seconds
            out.snapshot_slowdown = timed.slowdown
            out.snapshot_bytes = len(snapshot)
            out.api_calls += 1
        out.fold_cluster(
            result, len(requests), built.block_seconds, self.expected_reject
        )
        demand: Dict[str, int] = {}
        for _client, title, _at in inputs["demand"]:
            demand[title] = demand.get(title, 0) + 1
        full_catalog, max_flow = built.analytic_bound(demand)
        out.bound = min(full_catalog, max_flow)
        out.bound_detail = {
            "full_catalog_bound": full_catalog,
            "demand_max_flow": max_flow,
        }
        out.check(
            out.admitted <= full_catalog,
            f"admitted {out.admitted} > full-catalog bound {full_catalog}",
        )
        out.check(
            out.admitted <= max_flow,
            f"admitted {out.admitted} > demand max-flow {max_flow}",
        )
        return self.finish(out, built)


class ClusterHot(ClusterWorkload):
    name = "cluster_hot"
    expected_reject = RejectReason.NO_REPLICA

    def params(self, smoke):
        if smoke:
            return dict(nodes=4, titles=8, seconds=6.0, opens=60,
                        per_node_streams=12, chunks=2, cache_blocks=4096)
        return dict(nodes=4, titles=8, seconds=60.0, opens=200,
                    per_node_streams=40, chunks=4, cache_blocks=4096)


class FailoverObserved(ClusterWorkload):
    name = "failover_observed"
    observed = True
    #: Handoff glitches are counted into ``failed``, not asserted.
    fault_free = False

    def params(self, smoke):
        # per_node_streams leaves every survivor the slack to absorb the
        # dead node's sessions, so each handoff has somewhere to land.
        if smoke:
            return dict(nodes=4, titles=6, seconds=6.0, opens=24,
                        per_node_streams=24, chunks=3, cache_blocks=4096,
                        kill=(1, 1))
        return dict(nodes=4, titles=8, seconds=60.0, opens=100,
                    per_node_streams=100, chunks=6, cache_blocks=4096,
                    kill=(1, 2))


# -- single-server workloads -------------------------------------------------------


class ServerCold(Workload):
    name = "server_cold"

    def params(self, smoke):
        if smoke:
            return dict(seconds=30.0, epochs=5, arrival_window=5.0)
        return dict(seconds=300.0, epochs=3, arrival_window=5.0)

    def inputs(self, seed, params):
        # One arrival per strand per epoch; the strand count is the
        # drive's n_max, known only once the stack exists, so draw a
        # generous row and let run() use the first n_max of each.
        rng = random.Random(seed)
        return {
            "arrivals": [
                [rng.uniform(0.0, params["arrival_window"])
                 for _ in range(64)]
                for _ in range(params["epochs"])
            ]
        }

    def setup(self, inputs, params, observed=True):
        built = stack.build_server(
            drive="fast", cache_blocks=0, batch_window=0.0
        )
        for index in range(built.capacity):
            stack.record_rope(
                built,
                frames=stack.video_frames(params["seconds"], f"cold-{index}"),
                viewers=(VIEWER,),
            )
        return built

    def run(self, built, inputs, params, tracer):
        out = Outcome(counters=stack.counters(built))
        epochs = [
            [
                OpenSessionRequest(VIEWER, rope_id, arrival=at)
                for rope_id, at in zip(built.ropes, row)
            ]
            for row in inputs["arrivals"]
        ]
        results = []
        with tracer.region("run") as timed:
            for requests in epochs:
                results.append(built.server.serve(requests))
        out.run_s, out.run_slowdown = timed.seconds, timed.slowdown
        out.api_calls = len(epochs)
        for requests, result in zip(epochs, results):
            out.fold_server(result, len(requests), built.block_seconds)
        out.bound = built.capacity * len(epochs)
        out.bound_detail = {
            "capacity": built.capacity, "epochs": len(epochs),
        }
        out.check(
            out.admitted == out.bound,
            f"admitted {out.admitted} != capacity x epochs {out.bound}",
        )
        return self.finish(out, built)


class LifecycleOverload(Workload):
    name = "lifecycle_overload"
    expected_reject = RejectReason.CAPACITY
    STRANDS = 5

    def params(self, smoke):
        return dict(cycles=10 if smoke else 130, seconds=20.0,
                    cache_blocks=128)

    def inputs(self, seed, params):
        rng = random.Random(seed)
        cycles = []
        for _ in range(params["cycles"]):
            order = list(range(self.STRANDS))
            rng.shuffle(order)
            cycles.append({
                "order": order,
                "gaps": [rng.uniform(0.0, 0.01) for _ in order],
                "victim": rng.random(),
                "stopped": rng.random(),
            })
        return {"cycles": cycles}

    def setup(self, inputs, params, observed=True):
        built = stack.build_server(
            drive="testbed", cache_blocks=params["cache_blocks"],
            batch_window=0.0,
        )
        for index in range(self.STRANDS):
            stack.record_rope(
                built,
                frames=stack.video_frames(params["seconds"], f"life-{index}"),
                viewers=(VIEWER,),
            )
        return built

    def run(self, built, inputs, params, tracer):
        out = Outcome(counters=stack.counters(built))
        server = built.server
        now = time.perf_counter_ns
        open_ns = out.open_ns
        clock = 0.0
        ended: Dict[str, str] = {}
        admitted_ids: List[str] = []
        epochs: List[ServeResult] = []
        with tracer.region("run") as timed:
            for cycle in inputs["cycles"]:
                admitted: List[str] = []
                for strand, gap in zip(cycle["order"], cycle["gaps"]):
                    clock += gap
                    request = OpenSessionRequest(
                        VIEWER, built.ropes[strand], arrival=clock,
                        auto_play=False,
                    )
                    start = now()
                    response = server.open(request)
                    open_ns.append(now() - start)
                    if response.accepted:
                        admitted.append(response.session_id)
                    else:
                        out.note_reject(response.reject, self.expected_reject)
                for session_id in admitted:
                    server.play(PlayRequest(session_id, arrival=clock))
                victim = admitted[int(cycle["victim"] * len(admitted))]
                server.pause(
                    PauseRequest(victim, arrival=clock, destructive=True)
                )
                resumed = server.resume(ResumeRequest(victim, arrival=clock))
                if resumed.state is not SessionState.PLAYING:
                    out.call_errors += 1
                stopped = admitted[int(cycle["stopped"] * len(admitted))]
                status = server.stop(StopRequest(stopped, arrival=clock))
                ended[stopped] = status.state.value
                epochs.append(server.serve([]))
                out.api_calls += len(cycle["order"]) + len(admitted) + 4
                admitted_ids.extend(admitted)
        out.run_s, out.run_slowdown = timed.seconds, timed.slowdown
        out.offered = len(inputs["cycles"]) * self.STRANDS
        out.admitted = len(admitted_ids)
        glitched = set()
        for result in epochs:
            out.fold_epoch(result, built.block_seconds)
            for status in result.statuses:
                out.note_session(status)
                ended[status.session_id] = status.state.value
                out.blocks += status.blocks_delivered
                out.misses += status.misses
                out.skips += status.skips
                out.startup.append(status.startup_latency)
                if status.misses or status.skips:
                    glitched.add(status.session_id)
        # A session the client stopped saw no glitch: it counts as
        # continuous; one that neither completed nor was stopped is lost.
        for session_id in admitted_ids:
            if ended.get(session_id) not in ("completed", "stopped"):
                out.lost_or_duplicated += 1
            elif session_id not in glitched:
                out.continuous += 1
        out.check(
            len(admitted_ids) == len(set(admitted_ids)),
            "session id admitted twice",
        )
        out.check(
            out.admitted + sum(out.rejects.values()) == out.offered,
            "offered != admitted + rejected",
        )
        out.bound = built.capacity * len(inputs["cycles"])
        out.bound_detail = {
            "capacity": built.capacity, "cycles": len(inputs["cycles"]),
        }
        return self.finish(out, built)


class RecordEditPlay(Workload):
    name = "record_edit_play"
    #: Glitches after an edit are counted into ``failed``, not asserted.
    fault_free = False
    OPS = ("insert", "replace", "delete", "substring", "concate")
    ROPES = 8
    BASES = 4
    SERVED = 3
    #: Edit positions sit on a half-second grid: whole frames and whole
    #: audio samples, which every rope operation accepts at any seed.
    GRID = 0.5

    def params(self, smoke):
        if smoke:
            return dict(cycles=2, seconds=10.0, edits=20, cache_blocks=128)
        return dict(cycles=10, seconds=30.0, edits=80, cache_blocks=128)

    def inputs(self, seed, params):
        rng = random.Random(seed)
        media = []
        for index in range(self.ROPES):
            frames = stack.video_frames(params["seconds"], f"take-{index}")
            chunks = (
                stack.talk_spurts(
                    params["seconds"], 0.4, rng.randrange(2 ** 32)
                )
                if index % 2 == 0 else None
            )
            media.append((frames, chunks))
        scripts = []
        for _ in range(params["cycles"]):
            ops = [
                self.OPS[i % len(self.OPS)] for i in range(params["edits"])
            ]
            rng.shuffle(ops)
            # Bases take turns, so every base rope ends each cycle with
            # the same mix of edits and close to the same length.
            scripts.append([
                (op, i % self.BASES,
                 self.BASES + rng.randrange(self.ROPES - self.BASES),
                 rng.random(), rng.random(), rng.random())
                for i, op in enumerate(ops)
            ])
        return {"media": media, "scripts": scripts}

    def setup(self, inputs, params, observed=True):
        return stack.build_server(
            drive="testbed", cache_blocks=params["cache_blocks"],
            batch_window=0.0,
        )

    def _on_grid(self, share: float, low: float, high: float) -> float:
        steps = int((high - low) / self.GRID)
        return low + min(int(share * (steps + 1)), steps) * self.GRID

    def _edit(self, built, ropes, step) -> None:
        op, base_index, source_index, u1, u2, u3 = step
        mrs = built.server.mrs
        user = stack.LIBRARIAN
        base, source = ropes[base_index], ropes[source_index]
        _, base_s = stack.rope_shape(built, base)
        _, source_s = stack.rope_shape(built, source)
        length = self._on_grid(u1, 0.5, 3.0)
        if op == "insert":
            mrs.insert(
                user, base, self._on_grid(u2, 0.0, base_s), Media.VIDEO,
                source, self._on_grid(u3, 0.0, source_s - length), length,
            )
        elif op == "replace":
            mrs.replace(
                user, base, Media.VIDEO,
                self._on_grid(u2, 0.0, base_s - length), length,
                source, self._on_grid(u3, 0.0, source_s - length), length,
            )
        elif op == "delete":
            mrs.delete(
                user, base, Media.AUDIO_VISUAL,
                self._on_grid(u2, 0.0, base_s - length), length,
            )
        elif op == "substring":
            length = self._on_grid(u1, 1.0, 5.0)
            mrs.substring(
                user, base, Media.VIDEO,
                self._on_grid(u2, 0.0, base_s - length), length,
            )
        else:
            mrs.concate(user, base, source)

    def run(self, built, inputs, params, tracer):
        out = Outcome(counters=stack.counters(built))
        server = built.server
        clock = time.perf_counter
        editors = (stack.LIBRARIAN,)
        results: List[ServeResult] = []
        leftovers = 0
        with tracer.region("run") as timed:
            for script in inputs["scripts"]:
                start = clock()
                ropes = [
                    stack.record_rope(
                        built, frames=frames, chunks=chunks,
                        viewers=editors, editors=editors,
                    )
                    for frames, chunks in inputs["media"]
                ]
                recorded = clock()
                out.record_s += recorded - start
                out.recorded_blocks += sum(
                    stack.stored_blocks(built, rope) for rope in ropes
                )
                start = clock()
                for step in script:
                    try:
                        self._edit(built, ropes, step)
                    except Exception as error:
                        out.call_errors += 1
                        out.violations.append(
                            f"{step[0]} raised {type(error).__name__}: "
                            f"{error}"
                        )
                    out.repair_blocks += stack.repair_blocks_copied(built)
                out.edit_s += clock() - start
                out.edits += len(script)
                out.occupancy_peak = max(
                    out.occupancy_peak, stack.occupancy(built)
                )
                for rope in ropes[: self.BASES]:
                    segments, _seconds = stack.rope_shape(built, rope)
                    out.segments += segments
                    out.ropes_measured += 1
                results.append(server.serve([
                    OpenSessionRequest(
                        stack.LIBRARIAN, rope, media=Media.VIDEO
                    )
                    for rope in ropes[: self.SERVED]
                ]))
                mrs = server.mrs
                doomed = mrs.rope_ids()
                for rope in doomed:
                    mrs.delete_rope(stack.LIBRARIAN, rope)
                mrs.msm.collect_garbage()
                leftovers += len(mrs.msm.strand_ids())
                built.ropes.clear()
                # record + stop per rope, the edits, one serve, one
                # delete per rope (substrings included), one collection.
                out.api_calls += (
                    2 * self.ROPES + len(script) + 1 + len(doomed) + 1
                )
        out.run_s, out.run_slowdown = timed.seconds, timed.slowdown
        for result in results:
            out.fold_server(result, self.SERVED, built.block_seconds)
        out.check(
            leftovers == 0,
            f"{leftovers} strands survived delete_rope + collect_garbage",
        )
        out.bound = built.capacity * len(results)
        out.bound_detail = {
            "capacity": built.capacity, "serves": len(results),
        }
        return self.finish(out, built)


WORKLOADS = {
    workload.name: workload
    for workload in (
        ClusterHot(), ServerCold(), LifecycleOverload(),
        FailoverObserved(), RecordEditPlay(),
    )
}
