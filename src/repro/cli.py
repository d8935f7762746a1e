"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``profiles``
    List the built-in hardware profiles with their derived §2 figures.
``policy``
    Show the §3.3.4 placement policies the testbed's MSM derives.
``experiments [ID ...]``
    Run rows of the claims table (:data:`repro.analysis.EXPERIMENTS`:
    e1..e22, a1..a3; default: all), print each one's tables and its
    shape verdict, and exit 1 if any verdict is red.
``demo``
    The quickstart flow: derive policy, record a clip, play it back.
``run``, ``obs-report``, ``profile``, ``trace-export``
    Four *views* of one registered scenario (:mod:`repro.scenarios`).
    All share ``--scenario NAME`` (choices come from the registry),
    ``--set KEY=VALUE`` (repeatable; typed against the scenario's
    dataclass fields), ``--smoke`` (the scenario's tiny CI sizing),
    ``--seed`` and ``--json``:

    ``run``
        Run it and print the outcome summary (``--json``: parameters,
        deterministic metrics, the typed result, analytical bounds);
        exit code 0 iff the run is healthy.
    ``obs-report [--top N] [--profile-timers]``
        Its observability report, cost profile included (``--json``:
        the raw snapshot).
    ``profile [--top N] [--trace-out FILE]``
        Its ranked cost centers under the deterministic
        :class:`repro.obs.CostProfiler` (``--json``: the byte-stable
        profile section; ``--trace-out``: a Perfetto document with
        per-phase counter tracks).
    ``trace-export [--out FILE] [--profile]``
        Its causal span trace as Chrome trace-event JSON, loadable in
        Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.

A :class:`~repro.errors.ReproError` anywhere below ``main`` (an unknown
``--set`` key, a value of the wrong type or out of range, a request
admission refuses) or an :class:`OSError` (an output path that cannot
be written) ends in a one-line ``error: …`` on stderr and exit code 2.
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import Optional, Sequence

from repro import analysis, scenarios
from repro.config import PROFILES
from repro.core import continuity, video_block_model
from repro.core.continuity import Architecture
from repro.errors import InfeasibleError, ParameterError, ReproError
from repro.media import frames_for_duration, generate_talk_spurts
from repro.rope import Media, build_rope_server
from repro.service import PlaybackSession
from repro.units import format_rate, format_seconds

__all__ = ["main"]


def _add_common_options(
    parser: argparse.ArgumentParser,
    seed_default: int = 20260806,
    seed_help: str = "deterministic scenario seed",
    json_help: str = "print machine-readable JSON instead of the report",
) -> argparse.ArgumentParser:
    """Attach the ``--seed`` / ``--json`` pair every scenario command has.

    One shared builder keeps the contract uniform: the same flag names,
    types, and defaults on ``demo`` and the four scenario views — tests
    introspect the parser to enforce this.
    """
    parser.add_argument("--seed", type=int, default=seed_default,
                        help=seed_help)
    parser.add_argument("--json", action="store_true", help=json_help)
    return parser


def _cmd_profiles(_args: argparse.Namespace) -> int:
    for name in sorted(PROFILES):
        profile = PROFILES[name]
        print(f"{name}")
        print(f"  {profile.description}")
        print(
            f"  video: {profile.video.frame_rate:g} fps x "
            f"{profile.video.frame_size:g} bits/frame "
            f"({format_rate(profile.video.bit_rate)})"
        )
        print(
            f"  audio: {profile.audio.sample_rate:g} Hz x "
            f"{profile.audio.sample_size:g} bits/sample"
        )
        print(
            f"  disk: {format_rate(profile.disk.transfer_rate)}, seek "
            f"max/avg/track = "
            f"{format_seconds(profile.disk.seek_max)} / "
            f"{format_seconds(profile.disk.seek_avg)} / "
            f"{format_seconds(profile.disk.seek_track)}, "
            f"{profile.disk.heads} head(s)"
        )
    return 0


def _cmd_policy(_args: argparse.Namespace) -> int:
    msm = build_rope_server().msm
    for label, policy in (
        ("video", msm.policies.video),
        ("audio", msm.policies.audio),
        ("mixed", msm.policies.mixed),
    ):
        print(
            f"{label}: granularity {policy.granularity} units/block, "
            f"block {policy.block_bits:g} bits, scattering "
            f"[{format_seconds(policy.scattering_lower)}, "
            f"{format_seconds(policy.scattering_upper)}]"
        )
    block = video_block_model(msm.video, msm.policies.video.granularity)
    for architecture in (
        Architecture.SEQUENTIAL, Architecture.PIPELINED
    ):
        try:
            bound = continuity.max_scattering(
                architecture, block, msm.disk_params, msm.video_device
            )
            print(
                f"{architecture.value} l_ds bound: {format_seconds(bound)}"
            )
        except InfeasibleError:
            print(f"{architecture.value}: infeasible at any scattering")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    red = False
    for row in analysis.select(args.ids):
        result = row.measure()
        print(row.report(result))
        print()
        red = red or bool(row.failed(result))
    return int(red)


def _cmd_demo(args: argparse.Namespace) -> int:
    mrs = build_rope_server()
    rng = random.Random(args.seed)
    frames = frames_for_duration(mrs.msm.video, args.seconds, source="demo")
    chunks = generate_talk_spurts(mrs.msm.audio, args.seconds, 0.35, rng)
    request_id, rope_id = mrs.record("demo", frames=frames, chunks=chunks)
    mrs.stop(request_id)
    play_id = mrs.play("demo", rope_id, media=Media.AUDIO_VISUAL)
    result = PlaybackSession(mrs).run([play_id])
    metrics = result.metrics[play_id]
    if args.json:
        import json

        print(json.dumps({
            "rope_id": rope_id,
            "duration": mrs.get_rope(rope_id).duration,
            "blocks_delivered": metrics.blocks_delivered,
            "misses": metrics.misses,
            "startup_latency": metrics.startup_latency,
            "continuous": metrics.continuous,
        }, indent=2, sort_keys=True))
    else:
        print(
            f"recorded rope {rope_id}: "
            f"{mrs.get_rope(rope_id).duration:.2f} s"
        )
        print(
            f"played {metrics.blocks_delivered} blocks, misses "
            f"{metrics.misses}, startup "
            f"{format_seconds(metrics.startup_latency)}"
        )
    return 0 if metrics.continuous else 1


def _add_scenario_options(
    parser: argparse.ArgumentParser,
) -> argparse.ArgumentParser:
    """Attach the options every scenario view shares."""
    parser.add_argument(
        "--scenario", required=True, choices=sorted(scenarios.REGISTRY),
        help="which registered scenario to run",
    )
    parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override one scenario parameter (repeatable; typed "
             "against the scenario's fields)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="use the scenario's tiny CI sizing",
    )
    return _add_common_options(
        parser, seed_help="scenario seed (workload draws and trace ids)",
    )


def _scenario(args: argparse.Namespace) -> scenarios.Scenario:
    """The scenario a view's ``--scenario/--set/--smoke/--seed`` name."""
    spec = {"seed": str(args.seed)}
    for item in args.set:
        key, equals, value = item.partition("=")
        if not equals:
            raise ParameterError(f"--set expects KEY=VALUE, got {item!r}")
        spec[key] = value
    return scenarios.get(args.scenario).from_spec(
        spec, smoke=args.smoke, text=True
    )


def _require_writable(path: Optional[str]) -> None:
    """Fail on an output *path* nothing can be written to before the run
    whose result it is to hold, not after (``main`` reports the error)."""
    if path:
        with open(path, "a", encoding="utf-8"):
            pass


def _write_json(path: str, document: object) -> None:
    import json

    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(document, indent=2, sort_keys=True) + "\n")


def _print_summary(run: scenarios.ScenarioRun) -> None:
    """The human outcome of a run, whatever its result type."""
    result, metrics = run.result, run.metrics()
    totals = ", ".join(
        f"{metrics[key]} {label}"
        for key, label in (
            ("blocks_delivered", "blocks"), ("rounds", "rounds"),
            ("misses", "misses"),
        )
        if metrics[key] is not None
    )
    print(
        f"{run.scenario.name}: {totals}"
        f"{'' if run.healthy() else ' -- UNHEALTHY'}"
    )
    if hasattr(result, "statuses"):
        print(
            f"  {len(result.statuses)} sessions: {result.admitted} "
            f"admitted, {result.continuous_sessions} continuous, "
            f"{len(result.rejects)} rejected"
        )
    if hasattr(result, "batches"):
        print(
            f"  {result.batches} batches at k={result.k_used}, "
            f"cache {result.cache_stats or 'off'}"
        )
    if getattr(result, "handoffs", ()):
        print(
            f"  handoffs: {result.handoffs_clean}/{len(result.handoffs)} "
            f"clean (ratio {result.handoff_clean_ratio:.2f})"
        )
    bounds = run.bounds
    if bounds is not None:
        print(
            f"  bounds: full-catalog {bounds.full_catalog} streams, "
            f"demand {bounds.demand_satisfiable}/{bounds.demand_total} "
            f"satisfiable, storage "
            f"{'ok' if bounds.storage_ok else 'infeasible'}"
        )


def _cmd_run(args: argparse.Namespace) -> int:
    import json

    run = _scenario(args).run()
    if args.json:
        print(json.dumps(run.to_dict(), indent=2, sort_keys=True))
    else:
        _print_summary(run)
    return 0 if run.healthy() else 1


def _cmd_obs_report(args: argparse.Namespace) -> int:
    if args.profile_timers and not args.json:
        raise ParameterError("--profile-timers only applies with --json")
    scenario = _scenario(args)
    run = scenario.run(scenario.observability(profile=True))
    if args.json:
        print(run.snapshot(include_profile=args.profile_timers))
    else:
        print(run.obs.report(top=args.top))
        print()
        _print_summary(run)
    return 0 if run.healthy() else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    import json
    import math

    scenario = _scenario(args)
    _require_writable(args.trace_out)
    obs = scenario.observability(profile=True)
    section = scenario.profile_section(scenario.run(obs))
    phases = section["phases"]
    share_sum = sum(entry["share"] for entry in phases.values())
    # The profile must account for the whole run: something was
    # recorded, shares sum to 1, and the two mechanism phases add up to
    # the busy time the attached drives report themselves.
    healthy = (
        section["total_ops"] > 0
        and abs(share_sum - 1.0) <= 1e-9
        and math.isclose(
            phases["seek"]["cost_s"] + phases["transfer"]["cost_s"],
            obs.profiler.drive_busy_time(), rel_tol=1e-9,
        )
    )
    if args.trace_out:
        _write_json(args.trace_out, obs.to_chrome_trace())
    if args.json:
        print(json.dumps(section, indent=2, sort_keys=True))
    elif args.smoke:
        hottest = section["top"][0]
        print(
            f"profile smoke: {section['total_ops']} ops, "
            f"{section['total_cost_s']:.6f}s modeled, hottest "
            f"{hottest['phase']} ({hottest['share']:.1%}), share sum "
            f"{share_sum:.12f}"
        )
    else:
        print(f"profile: {args.scenario} (seed {args.seed})")
        print("\n".join(obs.profiler.render(args.top)))
        if args.trace_out:
            print(f"  wrote {args.trace_out}")
    return 0 if healthy else 1


def _cmd_trace_export(args: argparse.Namespace) -> int:
    import json

    scenario = _scenario(args)
    _require_writable(args.out)
    obs = scenario.observability(profile=args.profile)
    scenario.run(obs)
    document = obs.to_chrome_trace()
    if args.out:
        _write_json(args.out, document)
    if args.json:
        sys.stdout.write(
            json.dumps(document, indent=2, sort_keys=True) + "\n"
        )
    else:
        other = document["otherData"]
        print(
            f"{args.scenario}: {other['spans']} spans "
            f"({other['dropped']} dropped), "
            f"{len(document['traceEvents'])} trace events"
        )
        if args.out:
            print(f"wrote {args.out}")
        else:
            print(
                "pass --out FILE (or --json) and load the file in "
                "https://ui.perfetto.dev or chrome://tracing"
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Rangan & Vin, 'Designing File Systems for "
            "Digital Video and Audio' (SOSP 1991)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser(
        "profiles", help="list hardware profiles"
    ).set_defaults(handler=_cmd_profiles)

    commands.add_parser(
        "policy", help="show the testbed's derived placement policies"
    ).set_defaults(handler=_cmd_policy)

    experiments = commands.add_parser(
        "experiments",
        help="run rows of the claims table; print tables and verdicts",
    )
    experiments.add_argument(
        "ids", nargs="*",
        help="experiment ids (e1..e22, a1..a3); default all",
    )
    experiments.set_defaults(handler=_cmd_experiments)

    demo = commands.add_parser("demo", help="record and play a demo clip")
    demo.add_argument("--seconds", type=float, default=10.0)
    _add_common_options(
        demo, seed_default=2026, seed_help="talk-spurt generator seed",
        json_help="print the demo outcome as JSON",
    )
    demo.set_defaults(handler=_cmd_demo)

    run = commands.add_parser(
        "run", help="run a registered scenario and summarize the outcome"
    )
    _add_scenario_options(run).set_defaults(handler=_cmd_run)

    obs_report = commands.add_parser(
        "obs-report",
        help="run a scenario observed and print its telemetry",
    )
    obs_report.add_argument(
        "--profile-timers", action="store_true",
        help="include wall-clock timer data (not byte-stable) in --json",
    )
    obs_report.add_argument(
        "--top", type=int, default=5,
        help="profiler cost centers to list in the report (default: 5)",
    )
    _add_scenario_options(obs_report).set_defaults(
        handler=_cmd_obs_report
    )

    profile = commands.add_parser(
        "profile",
        help="run a scenario under the cost-attribution profiler",
    )
    profile.add_argument(
        "--top", type=int, default=5,
        help="cost centers to list (default: 5)",
    )
    profile.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="also write a Perfetto-loadable trace with profile.<phase> "
             "counter tracks to FILE",
    )
    _add_scenario_options(profile).set_defaults(handler=_cmd_profile)

    trace_export = commands.add_parser(
        "trace-export",
        help="export a scenario's causal trace as Chrome trace JSON",
    )
    trace_export.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the trace-event JSON to FILE",
    )
    trace_export.add_argument(
        "--profile", action="store_true",
        help="also attach the cost profiler, so the export carries "
             "profile.<phase> counter tracks alongside the spans",
    )
    _add_scenario_options(trace_export).set_defaults(
        handler=_cmd_trace_export
    )

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ReproError, OSError) as error:
        # OSError: a path that cannot be written (or read) names itself.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
