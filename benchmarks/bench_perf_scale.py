"""Perf-scale benchmark: service-loop throughput at production scale.

Not a paper artifact — this is the BENCH_PERF.json trajectory the
ROADMAP's "as fast as the hardware allows" goal is measured against.  It
scores the §3.4 round loop at 10/100/1000 concurrent streams (1000-block
strands), then runs a seeds × arrival-mixes × drive-configs sweep through
the :mod:`repro.perf` parallel runner, and the server / cluster /
tracing-overhead / profile comparisons — each a couple of
:mod:`repro.scenarios` registry runs and a comparison, with no stack
construction of its own.  The scale points land in
``BENCH_PERF.json`` at the repo root (``BENCH_PERF.smoke.json`` under
``--smoke``, so CI never clobbers the committed trajectory), and the
same points are re-emitted as an experiment-matrix manifest
(``BENCH_PERF.matrix.json``) so the bench trajectory and the
``repro expt gate`` regression machinery speak one schema — see
:mod:`repro.expt` and docs/MATRIX.md.

The trajectory to watch: ``blocks_per_second`` should stay flat across
stream count and strand length — the incremental consumption cursor and
cached disk models make per-block service cost O(1); any regression to
super-linear cost shows up as a falling curve at the 1000-stream point.
"""

import json
import time
from pathlib import Path

from conftest import emit, param, pedantic_args, smoke_mode

from repro import scenarios
from repro.expt import build_manifest, stable_json
from repro.obs import Observability
from repro.perf import run_sweep, scale_grid, scale_row, score

SCALE = scenarios.get("scale")
SERVER_HOT = scenarios.get("server-hot")
CLUSTER = scenarios.get("cluster-scale")
OBS_OVERHEAD = scenarios.get("obs-overhead")

ROOT = Path(__file__).resolve().parent.parent

#: Concurrent-stream scale points (smoke: tiny but still multi-stream).
STREAM_POINTS = param((10, 100, 1000), (2, 3))
BLOCKS_PER_STREAM = param(1000, 12)
SWEEP_SEEDS = param((0, 1), (0,))
SWEEP_DRIVES = param(("testbed", "table"), ("testbed",))
SWEEP_ARRIVALS = param(("uniform", "staggered"), ("uniform",))
SERVE_SESSIONS = param(50, 8)
SERVE_STRANDS = param(5, 2)
OBS_STREAMS = param(100, 8)
OBS_BLOCKS = param(1000, 50)
# min-of-repeats walls: 5 repeats under-samples on noisy shared hosts
# (observed min-of-5 ratios spanning 1.11-1.19 on one machine where
# min-of-15 converges to 1.12), so the full run takes 15.
OBS_REPEATS = param(15, 2)
CLUSTER_NODES = param(20, 3)
CLUSTER_SESSIONS = param(1000, 12)
CLUSTER_TITLES = param(40, 4)
CLUSTER_PER_NODE_STREAMS = param(75, 8)
CLUSTER_FAILOVER_NODES = param(4, 3)
CLUSTER_FAILOVER_SESSIONS = param(32, 12)


def _scenario(streams: int):
    return SCALE(
        label=f"scale-n{streams}",
        streams=streams,
        blocks_per_stream=BLOCKS_PER_STREAM,
    )


def _server_compare() -> dict:
    """Batched+cached vs per-request admission on the same disk.

    The per-request baseline runs unobserved so ``wall_time_s`` stays
    comparable along the committed BENCH_PERF.json trajectory.
    """
    sizing = dict(sessions=SERVE_SESSIONS, strands=SERVE_STRANDS)
    started = time.perf_counter()
    batched = SERVER_HOT(**sizing).run().result
    per_request = SERVER_HOT(
        cache_blocks=0, batching=False, **sizing
    ).run(Observability(enabled=False)).result
    wall = time.perf_counter() - started

    def side(result):
        return {
            "continuous": result.continuous_sessions,
            "admitted": result.admitted,
            "rejected": len(result.rejects),
            "batches": result.batches,
        }

    return {
        **sizing,
        "seconds": SERVER_HOT.seconds,
        "seed": SERVER_HOT.seed,
        "batched": {
            **side(batched),
            "cache_hits": batched.cache_stats.get("hits", 0),
            "cache_misses": batched.cache_stats.get("misses", 0),
        },
        "per_request": side(per_request),
        "wall_time_s": wall,
        "sessions_per_second": 2 * SERVE_SESSIONS / max(wall, 1e-9),
        "batched_wins": (
            batched.continuous_sessions > per_request.continuous_sessions
        ),
    }


def _cluster_scale() -> dict:
    """The scale run, then an independent node-kill failover run."""
    scale_run = CLUSTER(
        nodes=CLUSTER_NODES,
        sessions=CLUSTER_SESSIONS,
        titles=CLUSTER_TITLES,
        per_node_streams=CLUSTER_PER_NODE_STREAMS,
    ).run()
    failover_run = CLUSTER.from_matrix(
        nodes=CLUSTER_FAILOVER_NODES, sessions=CLUSTER_FAILOVER_SESSIONS
    ).run()
    result, fr = scale_run.result, failover_run.result
    params = scale_run.scenario.spec()
    del params["chunks"], params["kill_node"], params["kill_chunk"]
    bounds = scale_run.bounds.to_dict()
    return {
        **params,
        "scale": {
            "admitted": result.admitted,
            "continuous": result.continuous_sessions,
            "rejected": len(result.rejects),
            "blocks_delivered": scale_run.metrics()["blocks_delivered"],
            "total_misses": result.total_misses,
            "wall_time_s": scale_run.wall_s,
            "sessions_per_second": (
                len(result.statuses) / max(scale_run.wall_s, 1e-9)
            ),
        },
        "bounds": bounds,
        "failover": {
            "nodes": CLUSTER_FAILOVER_NODES,
            "sessions": CLUSTER_FAILOVER_SESSIONS,
            "affected": len(fr.handoffs),
            "clean": fr.handoffs_clean,
            "continuity_breaks": sum(
                1 for record in fr.handoffs
                if record.to_node is None or not record.clean
            ),
            "continuous": fr.continuous_sessions,
            "admitted": fr.admitted,
            "wall_time_s": failover_run.wall_s,
            "clean_ratio": (
                1.0 if fr.handoff_clean_ratio is None
                else fr.handoff_clean_ratio
            ),
        },
        "all_continuous": (
            result.admitted > 0
            and result.continuous_sessions == result.admitted
        ),
        "within_bounds": (
            result.admitted <= bounds["full_catalog"]
            and bounds["demand_satisfiable"] <= bounds["demand_total"]
        ),
    }


def _obs_overhead() -> dict:
    scenario = OBS_OVERHEAD(
        streams=OBS_STREAMS,
        blocks_per_stream=OBS_BLOCKS,
        repeats=OBS_REPEATS,
    )
    run = scenario.run()
    ratio = run.perf()["obs_overhead_ratio"]
    return {
        "streams": scenario.streams,
        "blocks_per_stream": scenario.blocks_per_stream,
        "repeats": scenario.repeats,
        "wall_off_s": run.warmups[0].wall_s,
        "wall_obs_s": run.wall_s,
        "ratio": ratio,
        "spans": len(run.obs.tracer),
        "spans_dropped": run.obs.tracer.dropped_count,
        "budget_ratio": scenario.budget_ratio,
        "within_budget": ratio <= scenario.budget_ratio,
    }


def _bench_path() -> Path:
    name = "BENCH_PERF.smoke.json" if smoke_mode() else "BENCH_PERF.json"
    return ROOT / name


def _matrix_path() -> Path:
    name = (
        "BENCH_PERF.matrix.smoke.json" if smoke_mode()
        else "BENCH_PERF.matrix.json"
    )
    return ROOT / name


def test_perf_scale_points(benchmark):
    """Score every scale point; benchmark the largest; write the JSON."""
    points = [score(_scenario(n)) for n in STREAM_POINTS]

    result = benchmark.pedantic(
        score,
        args=(_scenario(STREAM_POINTS[-1]),),
        **pedantic_args(),
    )
    assert result.metrics["blocks_delivered"] == (
        STREAM_POINTS[-1] * BLOCKS_PER_STREAM
    )

    sweep = run_sweep(
        scale_grid(
            stream_counts=list(STREAM_POINTS[:-1]) or [STREAM_POINTS[0]],
            blocks_per_stream=max(BLOCKS_PER_STREAM // 5, 4),
            seeds=SWEEP_SEEDS,
            drives=SWEEP_DRIVES,
            arrivals=SWEEP_ARRIVALS,
        ),
        workers=None,
    )

    compare = _server_compare()
    assert compare["batched_wins"], (
        "batched+cached admission must sustain strictly more continuous "
        f"streams than per-request: {compare['batched']['continuous']} vs "
        f"{compare['per_request']['continuous']}"
    )

    cluster = _cluster_scale()
    assert cluster["all_continuous"], (
        "every admitted cluster session must stay continuous: "
        f"{cluster['scale']['continuous']} of {cluster['scale']['admitted']}"
    )
    assert cluster["within_bounds"], (
        "measured concurrency exceeded the analytical VoD bounds: "
        f"{cluster['scale']['admitted']} admitted vs full-catalog "
        f"{cluster['bounds']['full_catalog']}"
    )
    assert cluster["failover"]["clean_ratio"] > 0.9, (
        ">90% of node-kill handoffs must preserve continuity: "
        f"{cluster['failover']['clean']} clean of "
        f"{cluster['failover']['affected']} affected"
    )
    if not smoke_mode():
        # The acceptance scale: 1000+ concurrent sessions, sharded.
        assert cluster["scale"]["admitted"] >= 1000

    overhead = _obs_overhead()
    if not smoke_mode():
        # The acceptance budget: full tracing + metrics + SLOs must cost
        # < 15% wall on the 100-session scenario.  Smoke walls are too
        # small to compare meaningfully, so only full mode enforces it.
        assert overhead["within_budget"], (
            f"observability overhead ratio {overhead['ratio']:.3f} exceeds "
            f"budget {overhead['budget_ratio']:.2f} "
            f"({overhead['wall_obs_s']:.3f}s vs "
            f"{overhead['wall_off_s']:.3f}s)"
        )

    profiled = _scenario(STREAM_POINTS[-1])
    profile_section = profiled.profile_section(
        profiled.run(profiled.observability(profile=True))
    )
    share_sum = sum(
        phase["share"] for phase in profile_section["phases"].values()
    )
    # Cost attribution must account for the whole run.
    assert abs(share_sum - 1.0) <= 1e-9, (
        f"profile phase shares must sum to 1.0, got {share_sum!r}"
    )
    assert profile_section["blocks_delivered"] == (
        STREAM_POINTS[-1] * BLOCKS_PER_STREAM
    )

    record = {
        "benchmark": "perf_scale",
        "schema_version": 1,
        "mode": "smoke" if smoke_mode() else "full",
        "blocks_per_stream": BLOCKS_PER_STREAM,
        "points": [scale_row(point) for point in points],
        "sweep": sweep.to_dict(),
        "server_compare": compare,
        "cluster_scale": cluster,
        "obs_overhead": overhead,
        "profile": profile_section,
    }
    path = _bench_path()
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    # The same trajectory as an expt-matrix manifest, so the scale
    # points can feed `repro expt gate`/`diff` like any matrix run.
    manifest = build_manifest(
        name=f"bench-perf-scale-{record['mode']}",
        cell_records=[
            cell.to_dict() for cell in points + list(sweep.results)
        ],
        workers=sweep.workers,
        parallel=sweep.parallel,
        wall_time_s=sweep.wall_time_s,
    )
    matrix_path = _matrix_path()
    matrix_path.write_text(stable_json(manifest))

    table_lines = [
        f"perf scale trajectory ({record['mode']}) -> {path.name}, "
        f"{matrix_path.name}"
    ]
    for point in map(scale_row, points):
        table_lines.append(
            f"  n={point['streams']:>5} x {point['blocks_per_stream']} "
            f"blocks: {point['wall_time_s']:.3f}s wall, "
            f"{point['blocks_per_second']:,.0f} blocks/s, "
            f"{point['streams_per_second']:,.0f} streams/s"
        )
    table_lines.append(
        f"  serve compare: batched {compare['batched']['continuous']} vs "
        f"per-request {compare['per_request']['continuous']} continuous "
        f"({compare['sessions_per_second']:,.0f} sessions/s)"
    )
    table_lines.append(
        f"  cluster scale: {cluster['scale']['continuous']}/"
        f"{cluster['scale']['admitted']} continuous on "
        f"{cluster['nodes']} nodes "
        f"(full-catalog bound {cluster['bounds']['full_catalog']}, "
        f"demand {cluster['bounds']['demand_satisfiable']}/"
        f"{cluster['bounds']['demand_total']}); failover "
        f"{cluster['failover']['clean']}/"
        f"{cluster['failover']['affected']} clean handoffs"
    )
    table_lines.append(
        f"  obs overhead: x{overhead['ratio']:.3f} "
        f"({overhead['wall_obs_s']:.3f}s traced vs "
        f"{overhead['wall_off_s']:.3f}s off, {overhead['spans']} spans, "
        f"budget x{overhead['budget_ratio']:.2f})"
    )
    hot = profile_section["top"][0]
    table_lines.append(
        f"  profile n={STREAM_POINTS[-1]}: hottest {hot['phase']} "
        f"({hot['share'] * 100:.1f}% of "
        f"{profile_section['total_cost_s']:.1f}s modeled, "
        f"{profile_section['total_ops']} ops)"
    )
    emit("\n".join(table_lines), sweep.table())

    for point in map(scale_row, points):
        assert point["blocks_delivered"] == (
            point["streams"] * point["blocks_per_stream"]
        )
