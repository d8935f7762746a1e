"""The names this benchmark fixes: workloads, metrics, units, bounds.

Later issues cite workloads and metrics by these names, so they are
data, in one place.  ``BENCHMARK.json`` repeats the driver-facing part
(``bench/test_bench.py`` checks the two agree); ``bench/README.md`` is
the prose glossary.

Two clocks, always labelled.  *Host* time is what the Python simulator
takes (``_s``, ``_us``, ``_per_s``).  *Simulated* time is what the
modelled 1991 hardware takes (``_sim_`` names and every ratio); it is a
pure function of (workload, seed) and must repeat exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: name -> why the workload was chosen (one line each).
WORKLOADS: Dict[str, str] = {
    "cluster_hot": (
        "Feasible cluster run at the analytic bound: per-session routing, "
        "batching, playback plans and cache hits do the work; the drive "
        "is almost idle."
    ),
    "server_cold": (
        "One server loaded to exactly n_max with no cache or batching: "
        "the round loop and the drive do nearly all the work; the mirror "
        "image of cluster_hot."
    ),
    "lifecycle_overload": (
        "The server used verb by verb under typed overload with a cache "
        "that overflows: admit/release, RPC marshalling and admission "
        "control; the only per-call latency."
    ),
    "failover_observed": (
        "Node killed mid-run with the stock cluster observability on: "
        "spans, timelines, profiler, federation and handoff do most of "
        "the work."
    ),
    "record_edit_play": (
        "Writes and edits beside reads: recording, rope edits with "
        "scattering repair, playback of edited ropes, deletion and "
        "garbage collection."
    ),
}

ALL = tuple(WORKLOADS)

TIMED, EXACT = "timed", "exact"
DEFAULT_SEED = 20260806


@dataclass(frozen=True)
class Metric:
    """One end-to-end metric.

    ``bound`` is the share of the baseline's median by which a timed
    metric may worsen before it counts as a regression; an ``exact``
    metric is simulated, repeats exactly, and may not move at all
    between two runs of one seed (its ``bound`` only matters to the
    driver, which pools different seeds).  ``contract`` marks the
    metrics defined, and never zero, on every workload: those are the
    ``end_to_end`` list of ``BENCHMARK.json``.  The rest are reported
    by ``python -m bench run`` for the workloads they apply to, and to
    the driver as unbounded ``per_layer`` values.
    """

    name: str
    unit: str
    better: str
    kind: str
    bound: Optional[float]
    workloads: Tuple[str, ...]
    contract: bool = False


END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", TIMED, 0.25, ALL, contract=True),
    Metric("blocks_per_s", "blocks/s", "higher", TIMED, 0.25, ALL,
           contract=True),
    Metric("open_p50_us", "us", "lower", TIMED, 0.25,
           ("lifecycle_overload",)),
    Metric("open_p99_us", "us", "lower", TIMED, 0.25,
           ("lifecycle_overload",)),
    Metric("record_blocks_per_s", "blocks/s", "higher", TIMED, 0.25,
           ("record_edit_play",)),
    Metric("edits_per_s", "ops/s", "higher", TIMED, 0.25,
           ("record_edit_play",)),
    Metric("snapshot_s", "s", "lower", TIMED, 0.25,
           ("failover_observed",)),
    Metric("peak_rss_mb", "MiB", "lower", TIMED, 0.10, ALL, contract=True),
    Metric("admitted_ratio", "ratio", "higher", EXACT, 0.01, ALL,
           contract=True),
    Metric("continuous_ratio", "ratio", "higher", EXACT, 0.01, ALL,
           contract=True),
    Metric("capacity_efficiency", "ratio", "higher", EXACT, 0.01, ALL,
           contract=True),
    Metric("startup_sim_p50_s", "s", "lower", EXACT, None, ALL),
    Metric("startup_sim_p90_s", "s", "lower", EXACT, None, ALL),
    Metric("handoff_clean_ratio", "ratio", "higher", EXACT, None,
           ("failover_observed",)),
    Metric("failed_ops_share", "ratio", "lower", EXACT, None, ALL),
)

E2E_BY_NAME = {metric.name: metric for metric in END_TO_END}
CONTRACT_E2E = tuple(m for m in END_TO_END if m.contract)

#: The layers, outermost first; ``bench`` is the driver loop itself.
LAYER_NAMES = (
    "cluster", "server", "service.rpc", "fs", "core", "rope",
    "service.session", "service.rounds", "disk.cache", "disk.drive",
    "obs", "bench",
)

#: (name, unit, better) of every per-layer metric, grouped by layer.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    # cluster
    ("cluster.serve_self_s", "s", "lower"),
    ("cluster.route_calls", "count", "lower"),
    ("cluster.route_s", "s", "lower"),
    ("cluster.node_epochs", "count", "lower"),
    ("cluster.placement_plan_s", "s", "lower"),
    ("cluster.build_s", "s", "lower"),
    ("cluster.warm_s", "s", "lower"),
    ("cluster.no_replica_rejects", "count", "lower"),
    ("cluster.handoffs", "count", "lower"),
    ("cluster.handoffs_clean", "count", "higher"),
    # server
    ("server.serve_calls", "count", "lower"),
    ("server.serve_self_s", "s", "lower"),
    ("server.batch_group_s", "s", "lower"),
    ("server.batches", "count", "lower"),
    ("server.batch_mean_size", "ratio", "higher"),
    ("server.cache_admitted_share", "ratio", "higher"),
    ("server.open_calls", "count", "lower"),
    ("server.open_s", "s", "lower"),
    ("server.verb_calls", "count", "lower"),
    ("server.verb_s", "s", "lower"),
    ("server.rejects.capacity", "count", "lower"),
    ("server.rejects.other", "count", "lower"),
    # service.rpc
    ("rpc.calls", "count", "lower"),
    ("rpc.bytes", "bytes", "lower"),
    ("rpc.invoke_self_s", "s", "lower"),
    # fs and core
    ("fs.admit_calls", "count", "lower"),
    ("fs.admit_s", "s", "lower"),
    ("fs.admit_rejected", "count", "lower"),
    ("fs.release_calls", "count", "lower"),
    ("core.admit_calls", "count", "lower"),
    ("core.admit_s", "s", "lower"),
    ("fs.store_strand_calls", "count", "lower"),
    ("fs.store_strand_s", "s", "lower"),
    ("fs.blocks_written", "count", "lower"),
    ("fs.occupancy_peak", "ratio", "lower"),
    ("fs.gc_s", "s", "lower"),
    ("fs.strands_collected", "count", "higher"),
    # rope
    ("rope.plan_calls", "count", "lower"),
    ("rope.plan_s", "s", "lower"),
    ("rope.plans_per_session_chunk", "ratio", "lower"),
    ("rope.open_request_calls", "count", "lower"),
    ("rope.open_request_s", "s", "lower"),
    ("rope.record_calls", "count", "lower"),
    ("rope.record_s", "s", "lower"),
    ("rope.edit_calls", "count", "lower"),
    ("rope.edit_s", "s", "lower"),
    ("rope.repair_blocks_copied", "count", "lower"),
    ("rope.segments_per_rope_mean", "ratio", "lower"),
    # service.session and service.rounds
    ("session.fetch_sequence_calls", "count", "lower"),
    ("session.fetch_sequence_self_s", "s", "lower"),
    ("rounds.run_calls", "count", "lower"),
    ("rounds.run_self_s", "s", "lower"),
    ("rounds.rounds", "count", "lower"),
    ("rounds.blocks", "count", "higher"),
    ("rounds.ns_per_block", "ns/block", "lower"),
    ("rounds.k_used", "count", "lower"),
    # disk.cache
    ("cache.reads", "count", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.evictions", "count", "lower"),
    ("cache.pin_failures", "count", "lower"),
    ("cache.read_self_s", "s", "lower"),
    # disk.drive
    ("drive.reads", "count", "lower"),
    ("drive.writes", "count", "lower"),
    ("drive.read_s", "s", "lower"),
    ("drive.write_s", "s", "lower"),
    ("drive.busy_sim_s", "s", "lower"),
    ("drive.seek_sim_s", "s", "lower"),
    ("drive.transfer_sim_s", "s", "lower"),
    ("drive.utilisation_sim", "ratio", "lower"),
    # obs
    ("obs.on_off_ratio", "ratio", "lower"),
    ("obs.snapshot_bytes", "bytes", "lower"),
    ("obs.spans", "count", "lower"),
    ("obs.spans_dropped", "count", "lower"),
    # faults
    ("faults.injected", "count", "lower"),
    ("faults.nodes_killed", "count", "lower"),
    # trace
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.self_time_residual", "ratio", "lower"),
    ("trace.missing_targets", "count", "lower"),
) + tuple(
    # Host self-time of each layer inside the timed run.
    (f"layer.{layer}.self_s", "s", "lower") for layer in LAYER_NAMES
) + tuple(
    # End-to-end metrics that are zero or undefined on some workload,
    # taken from the untraced repetition of the traced pass.
    (m.name, m.unit, m.better) for m in END_TO_END if not m.contract
)

PER_LAYER_NAMES = tuple(name for name, _unit, _better in PER_LAYER)
PER_LAYER_UNITS = {name: unit for name, unit, _better in PER_LAYER}
