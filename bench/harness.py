"""Repetitions, statistics, the simulated-state digest, and reports.

One run of one workload is a warm-up repetition followed by timed
repetitions, a fresh stack each (its construction is ``setup_s``) with
``gc.collect()`` between.  Every timed stretch is bracketed by a
calibration kernel and read at the reference host speed (see
``trace.kernel``); a timed metric is the median over the repetitions,
printed with its quartiles and sample count.  Simulated statistics must
be identical in every repetition, which the per-run ``sim_digest``
enforces.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from bench import catalog
from bench.trace import Region, Tracer
from bench.workloads import WORKLOADS, Outcome, Workload, nearest_rank

MIN_REPS, MAX_REPS = 5, 15
OPEN_PERCENTILES = (("open_p50_us", 0.5), ("open_p99_us", 0.99))

#: One repetition: its set-up stretch and what the run did.
Rep = Tuple[Region, Outcome]


def sim_digest(outcome: Outcome) -> str:
    """sha256 of the canonical JSON of the simulated statistics."""
    canonical = json.dumps(
        outcome.sim(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def repetition(
    workload: Workload, inputs, params, tracer: Tracer, observed: bool = True
) -> Rep:
    """Build a fresh stack (timed as set-up), run it, drop it."""
    gc.collect()
    tracer.rep += 1
    with tracer.region("setup") as timed:
        built = workload.setup(inputs, params, observed=observed)
    outcome = workload.run(built, inputs, params, tracer)
    return timed, outcome


def _timed(name: str, samples: Sequence[float], raw: Sequence[float]) -> Dict:
    """Median, quartiles and count of *samples* (host time at the
    reference speed), with the median as measured (*raw*) beside it."""
    entry = {
        "value": statistics.median(samples),
        "unit": catalog.E2E_BY_NAME[name].unit,
        "kind": catalog.TIMED,
        "n": len(samples),
        "samples": list(samples),
        "as_measured": statistics.median(raw),
    }
    if len(samples) >= 2:
        q1, _median, q3 = statistics.quantiles(samples, n=4)
        entry["q1"], entry["q3"] = q1, q3
    return entry


def _exact(name: str, value: float, base: str) -> Dict:
    unit = catalog.E2E_BY_NAME[name].unit
    return {"value": value, "unit": unit, "kind": catalog.EXACT, "base": base}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(name: str, reps: Sequence[Rep]) -> Dict[str, Dict]:
    """The end-to-end metrics that apply to workload *name*.

    Simulated metrics are read off the last repetition: the digest check
    has already shown every repetition agrees.
    """
    last = reps[-1][1]
    outcomes = [outcome for _setup, outcome in reps]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # name -> per repetition (value as measured, host slowdown then);
    # a time is divided by the slowdown, a rate multiplied by it.
    timed = {
        "setup_s": [(setup.seconds, setup.slowdown) for setup, _o in reps],
        "blocks_per_s": [
            (o.blocks / o.run_s, o.run_slowdown) for o in outcomes
        ],
        "peak_rss_mb": [(rss, 1.0)],
    }
    exact = {
        "admitted_ratio": (last.admitted, last.offered, ""),
        "continuous_ratio": (last.continuous, last.admitted, ""),
        "capacity_efficiency": (
            last.admitted, last.bound, f" {last.bound_detail}"
        ),
        "failed_ops_share": (last.failed, last.attempted, ""),
    }
    if last.open_ns:
        for label, share in OPEN_PERCENTILES:
            timed[label] = [
                (nearest_rank(o.open_ns, share) / 1000.0, o.run_slowdown)
                for o in outcomes
            ]
    if last.recorded_blocks:
        timed["record_blocks_per_s"] = [
            (o.recorded_blocks / o.record_s, o.run_slowdown)
            for o in outcomes
        ]
        timed["edits_per_s"] = [
            (o.edits / o.edit_s, o.run_slowdown) for o in outcomes
        ]
    if last.snapshot_s:
        timed["snapshot_s"] = [
            (o.snapshot_s, o.snapshot_slowdown) for o in outcomes
        ]
    if last.handoffs:
        exact["handoff_clean_ratio"] = (
            last.handoffs_clean, last.handoffs, ""
        )
    values = {}
    for key, pairs in timed.items():
        is_rate = catalog.E2E_BY_NAME[key].better == "higher"
        values[key] = _timed(
            key,
            [raw * slow if is_rate else raw / slow for raw, slow in pairs],
            [raw for raw, _slow in pairs],
        )
    for key, (top, bottom, detail) in exact.items():
        values[key] = _exact(
            key, _ratio(top, bottom), f"{top}/{bottom}{detail}"
        )
    for key, share in (("startup_sim_p50_s", 0.5), ("startup_sim_p90_s", 0.9)):
        values[key] = _exact(
            key, nearest_rank(last.startup, share), f"n={len(last.startup)}"
        )
    if last.open_ns:
        # Beside each repetition's own percentile, the one pooled over
        # all of them as measured (about 6,500 opens in a full run).
        pooled = [ns / 1000.0 for o in outcomes for ns in o.open_ns]
        for label, share in OPEN_PERCENTILES:
            values[label]["pooled"] = nearest_rank(pooled, share)
            values[label]["pooled_n"] = len(pooled)
    return {
        metric.name: values[metric.name]
        for metric in catalog.END_TO_END
        if name in metric.workloads and metric.name in values
    }


def _report(
    workload: Workload, seed: int, smoke: bool, params, reps: Sequence[Rep]
) -> Dict:
    """Everything both modes report: digest, checks, failure counts."""
    outcomes = [outcome for _setup, outcome in reps]
    digests = sorted({sim_digest(outcome) for outcome in outcomes})
    violations = sorted({v for o in outcomes for v in o.violations})
    if len(digests) > 1:
        violations.append(
            f"sim_digest differs between repetitions: {digests}"
        )
    last = outcomes[-1]
    sim = last.sim()
    # The report keeps the digest's totals, not its per-session rows.
    sim["startup"], sim["sessions"] = len(last.startup), len(last.sessions)
    return {
        "workload": workload.name,
        "why": catalog.WORKLOADS[workload.name],
        "seed": seed,
        "smoke": smoke,
        "params": params,
        "reps": len(reps),
        "sim_digest": digests[0],
        "correct": not violations,
        "violations": violations,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "sim": sim,
    }


def measure(name: str, seed: int, seconds: float, smoke: bool) -> Dict:
    """The end-to-end run of one workload: tracing off, nothing wrapped."""
    workload = WORKLOADS[name]
    params = workload.params(smoke)
    inputs = workload.inputs(seed, params)
    tracer = Tracer(enabled=False)
    reps: List[Rep] = []
    if smoke:
        reps = [
            repetition(workload, inputs, params, tracer) for _ in range(2)
        ]
    else:
        repetition(workload, inputs, params, tracer)  # warm-up, untimed
        started = time.perf_counter()
        while len(reps) < MIN_REPS or (
            len(reps) < MAX_REPS
            and time.perf_counter() - started < seconds
        ):
            reps.append(repetition(workload, inputs, params, tracer))
    report = _report(workload, seed, smoke, params, reps)
    report["mode"] = "end_to_end"
    report["metrics"] = end_to_end(name, reps)
    return report


def layer_metrics(
    tracer: Tracer,
    traced: Rep,
    untraced_run_s: float,
    unobserved_run_s: Optional[float],
    end_to_end_values: Dict[str, Dict],
) -> Dict[str, Optional[float]]:
    """Every per-layer metric; None where a wrap target no longer exists.

    Times are host self- or total-time from the traced repetition;
    counts come from the wrappers and from the run's public counters.
    *untraced_run_s* and *unobserved_run_s* are the median run walls
    (at the reference host speed) with the wrappers off, and with
    observability off as well.
    """
    setup_s, o = traced[0].seconds, traced[1]
    c = o.counters

    def get(region, attribute, *keys):
        found = tracer.stat(region, *keys)
        return None if found is None else getattr(found, attribute)

    def both(attribute, *keys):
        parts = [get(region, attribute, *keys) for region in ("setup", "run")]
        return None if None in parts else sum(parts)

    plan_s = get("setup", "total_s", "PlacementPolicy.plan")
    warm_s = get("setup", "total_s", "ClusterNode.warm")
    plan_calls = get("run", "calls", "MultimediaRopeServer.playback_plan")
    rounds_self = get("run", "self_s", "RoundRobinService.run")
    edits = (
        "MultimediaRopeServer.insert", "MultimediaRopeServer.replace",
        "MultimediaRopeServer.substring", "MultimediaRopeServer.concate",
        "MultimediaRopeServer.delete",
    )
    stores = tuple(
        f"MultimediaStorageManager.store_{medium}_strand"
        for medium in ("video", "audio", "mixed")
    )
    verbs = tuple(
        f"MediaServer.{verb}" for verb in ("play", "pause", "resume", "stop")
    )
    cache_reads = ("CachedDrive.read_slot", "CachedDrive.traced_read")
    drive_reads = ("SimulatedDrive.read_slot", "SimulatedDrive.traced_read")
    is_cluster = bool(get("setup", "calls", "PlacementPolicy.plan"))
    busy = (
        c["drive.seek_sim_s"] + c["drive.rotation_sim_s"]
        + c["drive.transfer_sim_s"]
    )
    other_rejects = sum(
        count for reason, count in o.rejects.items()
        if reason not in ("capacity", "no_replica")
    )
    out: Dict[str, Optional[float]] = {
        "cluster.serve_self_s": get("run", "self_s", "MediaCluster.serve"),
        "cluster.route_calls": get("run", "calls", "MediaCluster.route"),
        "cluster.route_s": get("run", "total_s", "MediaCluster.route"),
        "cluster.node_epochs": get("run", "calls", "ClusterNode.serve"),
        "cluster.placement_plan_s": plan_s,
        "cluster.build_s": (
            None if plan_s is None or warm_s is None
            else setup_s - plan_s - warm_s if is_cluster else 0.0
        ),
        "cluster.warm_s": warm_s,
        "cluster.no_replica_rejects": o.rejects.get("no_replica", 0),
        "cluster.handoffs": o.handoffs,
        "cluster.handoffs_clean": o.handoffs_clean,
        "server.serve_calls": get("run", "calls", "MediaServer.serve"),
        "server.serve_self_s": get("run", "self_s", "MediaServer.serve"),
        "server.batch_group_s": get("run", "total_s", "group_into_batches"),
        "server.batches": o.batches,
        "server.batch_mean_size": _ratio(o.session_chunks, o.batches),
        "server.cache_admitted_share": _ratio(o.cache_admitted, o.admitted),
        "server.open_calls": get("run", "calls", "MediaServer.open"),
        "server.open_s": get("run", "total_s", "MediaServer.open"),
        "server.verb_calls": get("run", "calls", *verbs),
        "server.verb_s": get("run", "total_s", *verbs),
        "server.rejects.capacity": o.rejects.get("capacity", 0),
        "server.rejects.other": other_rejects,
        "rpc.calls": c["rpc.calls"],
        "rpc.bytes": c["rpc.bytes"],
        "rpc.invoke_self_s": get("run", "self_s", "RpcChannel.invoke"),
        "fs.admit_calls": get(
            "run", "calls", "MultimediaStorageManager.admit"),
        "fs.admit_s": get(
            "run", "total_s", "MultimediaStorageManager.admit"),
        "fs.admit_rejected": get(
            "run", "errors", "MultimediaStorageManager.admit"),
        "fs.release_calls": get(
            "run", "calls", "MultimediaStorageManager.release"),
        "core.admit_calls": get("run", "calls", "AdmissionController.admit"),
        "core.admit_s": get("run", "total_s", "AdmissionController.admit"),
        "fs.store_strand_calls": both("calls", *stores),
        "fs.store_strand_s": both("total_s", *stores),
        "fs.blocks_written": both("result_sum", *stores),
        "fs.occupancy_peak": c["fs.occupancy_peak"],
        "fs.gc_s": get(
            "run", "total_s", "MultimediaStorageManager.collect_garbage"),
        "fs.strands_collected": get(
            "run", "result_sum", "MultimediaStorageManager.collect_garbage"),
        "rope.plan_calls": plan_calls,
        "rope.plan_s": get(
            "run", "total_s", "MultimediaRopeServer.playback_plan"),
        "rope.plans_per_session_chunk": (
            None if plan_calls is None
            else _ratio(plan_calls, o.session_chunks)
        ),
        "rope.open_request_calls": get(
            "run", "calls", "MultimediaRopeServer.open_request"),
        "rope.open_request_s": get(
            "run", "total_s", "MultimediaRopeServer.open_request"),
        "rope.record_calls": both("calls", "MultimediaRopeServer.record"),
        "rope.record_s": both("total_s", "MultimediaRopeServer.record"),
        "rope.edit_calls": get("run", "calls", *edits),
        "rope.edit_s": get("run", "total_s", *edits),
        "rope.repair_blocks_copied": o.repair_blocks,
        "rope.segments_per_rope_mean": _ratio(o.segments, o.ropes_measured),
        "session.fetch_sequence_calls": get(
            "run", "calls", "PlaybackSession.fetch_sequence"),
        "session.fetch_sequence_self_s": get(
            "run", "self_s", "PlaybackSession.fetch_sequence"),
        "rounds.run_calls": get("run", "calls", "RoundRobinService.run"),
        "rounds.run_self_s": rounds_self,
        "rounds.rounds": o.rounds,
        "rounds.blocks": o.blocks,
        "rounds.ns_per_block": (
            None if rounds_self is None
            else _ratio(rounds_self * 1e9, o.blocks)
        ),
        "rounds.k_used": max(o.k_used, default=0),
        "cache.reads": get("run", "calls", *cache_reads),
        "cache.hits": c["cache.hits"],
        "cache.hit_ratio": _ratio(
            c["cache.hits"], c["cache.hits"] + c["cache.misses"]
        ),
        "cache.evictions": c["cache.evictions"],
        "cache.pin_failures": c["cache.pin_failures"],
        "cache.read_self_s": get(
            "run", "self_s", *cache_reads,
            "BlockCache.lookup", "BlockCache.insert",
        ),
        "drive.reads": c["drive.reads"],
        "drive.writes": c["drive.writes"],
        "drive.read_s": get("run", "self_s", *drive_reads),
        "drive.write_s": get("run", "self_s", "SimulatedDrive.write_slot"),
        "drive.busy_sim_s": busy,
        "drive.seek_sim_s": c["drive.seek_sim_s"],
        "drive.transfer_sim_s": c["drive.transfer_sim_s"],
        "drive.utilisation_sim": _ratio(busy, o.sim_span_s),
        "obs.on_off_ratio": (
            1.0 if unobserved_run_s is None
            else _ratio(untraced_run_s, unobserved_run_s)
        ),
        "obs.snapshot_bytes": o.snapshot_bytes,
        "obs.spans": c["obs.spans"],
        "obs.spans_dropped": c["obs.spans_dropped"],
        "faults.injected": c["drive.faults_injected"] + o.nodes_killed,
        "faults.nodes_killed": o.nodes_killed,
        "trace.overhead_ratio": _ratio(
            o.run_s / o.run_slowdown, untraced_run_s
        ),
        "trace.self_time_residual": tracer.residual(),
        "trace.missing_targets": len(tracer.missing),
    }
    for layer, self_s in tracer.layer_self_s("run").items():
        out[f"layer.{layer}.self_s"] = self_s
    for metric in catalog.END_TO_END:
        if not metric.contract:
            entry = end_to_end_values.get(metric.name)
            out[metric.name] = entry["value"] if entry else 0.0
    return {name: out[name] for name in catalog.PER_LAYER_NAMES}


UNTRACED_REPS = 3


def trace_pass(name: str, seed: int, smoke: bool, out_dir: Path) -> Dict:
    """Untraced repetitions, then one traced: the per-layer numbers.

    The untraced repetitions are the base of ``trace.overhead_ratio``
    and the source of the end-to-end values reported per layer; on an
    observed workload as many again with observability off are the base
    of ``obs.on_off_ratio``.
    """
    workload = WORKLOADS[name]
    params = workload.params(smoke)
    inputs = workload.inputs(seed, params)
    plain = Tracer(enabled=False)
    count = 1 if smoke else UNTRACED_REPS
    if not smoke:
        repetition(workload, inputs, params, plain)  # warm-up
    untraced = [
        repetition(workload, inputs, params, plain) for _ in range(count)
    ]
    def run_wall(reps: Sequence[Rep]) -> float:
        return statistics.median(o.run_s / o.run_slowdown for _s, o in reps)

    unobserved_run_s = None
    if getattr(workload, "observed", False):
        unobserved_run_s = run_wall([
            repetition(workload, inputs, params, plain, observed=False)
            for _ in range(count)
        ])
    tracer = Tracer(enabled=True)
    tracer.install()
    try:
        traced = repetition(workload, inputs, params, tracer)
    finally:
        tracer.uninstall()
    report = _report(workload, seed, smoke, params, untraced + [traced])
    report["mode"] = "trace"
    values = layer_metrics(
        tracer, traced, run_wall(untraced), unobserved_run_s,
        end_to_end(name, untraced),
    )
    report["metrics"] = {
        key: {"value": value, "unit": catalog.PER_LAYER_UNITS[key]}
        for key, value in values.items()
    }
    run_s = traced[1].run_s
    report["layers"] = {
        layer: {"self_s": self_s, "share": _ratio(self_s, run_s)}
        for layer, self_s in tracer.layer_self_s("run").items()
    }
    report["missing_targets"] = list(tracer.missing)
    if values["trace.self_time_residual"] >= 0.01:
        report["violations"].append(
            "self-times do not sum to the root span within 1 %: residual "
            f"{values['trace.self_time_residual']:.4f}"
        )
        report["correct"] = False
    trace_file = out_dir / f"trace-{name}.json"
    tracer.dump(trace_file, name)
    report["trace_file"] = trace_file.name
    report["spans"] = len(tracer.spans)
    return report


def contract_line(report: Dict) -> str:
    """The driver's last line: correct, attempted, failed, metrics.

    The driver wants a number for every declared metric, so a per-layer
    value that is ``None`` in the report (its wrap target is gone) goes
    out as 0 — ``trace.missing_targets`` says how many did.
    """
    if report["mode"] == "trace":
        names = catalog.PER_LAYER_NAMES
    else:
        names = [metric.name for metric in catalog.CONTRACT_E2E]
    metrics = {}
    for name in names:
        entry = report["metrics"][name]
        value = entry["value"]
        metrics[name] = {
            "value": 0 if value is None else value, "unit": entry["unit"]
        }
    return json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    })
