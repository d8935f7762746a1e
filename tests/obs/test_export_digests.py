"""Export digests: every observed export of every scenario, pinned.

``tests/golden/export_digests.json`` holds the sha256 of
``obs.snapshot()`` and of the sorted-key Chrome trace for each
registered scenario at ``smoke()`` size (seeds 0 and 7, with and without
the profiler), the bare ``scale`` loop under each observability preset,
a few larger fixtures that reach the sampled finalize walk, and the
``request/*`` fixtures that drive the request path (lifecycle verbs,
typed overload, router rejects, stranded handoffs) where the smoke
scenarios never go.  Each digest was generated before the code it pins
was moved behind the recorder seam, so any refactor of the loop, drive,
cache, fault recovery, server, router, RPC channel or storage manager
that changes one byte of any export fails here.  Regenerate
intentionally with ``pytest --regen-golden``.

A profiled run is pinned twice more: the digest of its snapshot without
the ``"profile"`` section and of its trace without the ``profile.*``
counter events — what the profiler does not own, so a change to the
profiler must leave both alone — and ``profile_sections.json``, the
profile sections themselves as generated at the parent of the PR that
made the profile a read-side view of ``DriveStats`` / ``CacheStats``
(ISSUE 19), which today's sections must still match: ops and per-stream
rows exactly, modeled seconds to 1e-9 relative.
"""

import hashlib
import json
import math

import pytest

from repro.api import (
    OpenSessionRequest,
    PauseRequest,
    PlayRequest,
    ResumeRequest,
    StopRequest,
)
from repro.cluster.router import build_cluster
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.obs import Observability
from repro.scenarios import REGISTRY, get
from repro.scenarios.server import record_strands
from repro.server.media_server import build_media_server
from tests.conftest import GOLDEN_DIR

pytestmark = pytest.mark.golden

SEEDS = (0, 7)

SCALE = get("scale")
FAULT = get("fault")

#: The presets the bare loop is pinned under (``scale`` runs unobserved
#: by default, so its configurations are listed explicitly).
PRESETS = {
    "default": lambda seed: Observability(seed=seed),
    "for_scale": Observability.for_scale,
    "for_profiling": Observability.for_profiling,
}


def _sampled_profiled(seed):
    obs = Observability.for_scale(seed=seed)
    obs.enable_profiler()
    return obs


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _export(obs) -> dict:
    trace = obs.to_chrome_trace()
    out = {
        "snapshot": _digest(obs.snapshot()),
        "trace": _digest(json.dumps(trace, sort_keys=True)),
    }
    if obs.profiler is not None:
        snapshot = obs.snapshot_dict()
        del snapshot["profile"]
        trace["traceEvents"] = [
            event for event in trace["traceEvents"]
            if not event.get("name", "").startswith("profile.")
        ]
        out["snapshot_sans_profile"] = _digest(
            json.dumps(snapshot, sort_keys=True, indent=2)
        )
        out["trace_sans_profile"] = _digest(
            json.dumps(trace, sort_keys=True)
        )
    return out


def _sampled_fixtures():
    """Runs long enough to reach the every-64th lattice under
    ``for_scale``: a continuous load (closed-form consumption ends), a
    stalled one (the running fold), and a faulted playback (skips on
    the sampled walk, with and without a head failure)."""
    yield "scale-continuous-sampled", SCALE(
        streams=2, blocks_per_stream=150, label="cont"
    )
    yield "scale-stalled-sampled", SCALE(
        streams=6, blocks_per_stream=150, label="stall",
        arrivals="staggered",
    )
    # Seeds chosen so faults land on sampled indexes: 16 retries and
    # skips inside the keep-first prefix, 17 skips block 64 (lattice).
    for seed in (16, 17):
        yield f"fault-sampled-seed{seed}", FAULT(
            seed=seed, seconds=20.0, transient=9, defects=5
        )
    yield "fault-head-sampled", FAULT(
        seed=16, seconds=20.0, head_failure_at_op=100
    )


def _open(client, rope, arrival, **extra):
    return OpenSessionRequest(client, rope, arrival=arrival, **extra)


def lifecycle_fixture(obs):
    """Verb by verb on one server at ``n_max = 3``: a destructive pause
    re-admitted on resume, a second one whose slot a new open took
    meanwhile (the resume is *rejected*), a plain pause/resume, a stop,
    and the epoch that plays out whoever is left."""
    server = build_media_server(obs, cache_blocks=64, batch_window=0.0)
    ropes = record_strands(server.mrs, 4, 1.0, ["viewer"], "life")
    first, second, third = (
        server.open(
            _open("viewer", rope, 0.01 * index, auto_play=False)
        ).session_id
        for index, rope in enumerate(ropes[:3])
    )
    for session_id in (first, second, third):
        server.play(PlayRequest(session_id, arrival=0.05))
    server.pause(PauseRequest(first, arrival=0.06, destructive=True))
    readmitted = server.resume(ResumeRequest(first, arrival=0.07))
    server.pause(PauseRequest(second, arrival=0.08, destructive=True))
    fourth = server.open(
        _open("viewer", ropes[3], 0.09, auto_play=False)
    ).session_id
    refused = server.resume(ResumeRequest(second, arrival=0.10))
    server.play(PlayRequest(fourth, arrival=0.11))
    server.pause(PauseRequest(fourth, arrival=0.12))
    server.resume(ResumeRequest(fourth, arrival=0.13))
    server.stop(StopRequest(third, arrival=0.14))
    return server, (readmitted, refused, server.serve([]))


def overload_fixture(obs):
    """Typed overload on a full server with ``requeue_limit=1``: a direct
    open refused CAPACITY, then one serve() holding a two-member batch
    (plus a denied third member), a batch that is requeued and finally
    QUEUE_FULL, and UNKNOWN_ROPE / ACCESS_DENIED / EMPTY_INTERVAL; a
    last epoch plays the held sessions beside a cache-admitted open."""
    server = build_media_server(
        obs, cache_blocks=64, batch_window=0.25, requeue_limit=1
    )
    ropes = record_strands(
        server.mrs, 5, 1.0, ["viewer", "friend"], "over"
    )
    held = [
        server.open(_open("viewer", rope, 0.0, auto_play=False))
        for rope in ropes[:3]
    ]
    rejects = [server.open(_open("viewer", ropes[3], 0.0))]
    server.stop(StopRequest(held[2].session_id, arrival=0.0))
    rejects.extend(server.serve([
        _open("viewer", ropes[2], 0.01),
        _open("friend", ropes[2], 0.02),
        _open("stranger", ropes[2], 0.03),
        _open("viewer", ropes[3], 0.04),
        _open("viewer", "R9999", 0.05),
        _open("stranger", ropes[0], 0.06),
        _open("viewer", ropes[4], 0.07, start=5.0),
    ]).rejects)
    for response in held[:2]:
        server.play(PlayRequest(response.session_id, arrival=2.0))
    return server, (rejects, server.serve([_open("friend", ropes[2], 2.0)]))


def stranded_cluster_fixture(obs):
    """Single-replica titles on two-stream nodes: the router refuses an
    unknown title and two opens with no replica slack, and killing
    node-01 strands both of its sessions (no survivor holds T04; the
    one holding T01 is full)."""
    plan = FaultPlan(
        [FaultSpec(kind=FaultKind.HEAD_FAILURE, at_op=1, drive_index=1)],
        seed=0,
    )
    cluster, catalog = build_cluster(
        nodes=3, titles=4, seconds=1.0, per_node_streams=2,
        min_replicas=1, clients=[f"c{i}" for i in range(9)], obs=obs,
        fault_plan=plan,
    )
    requests = [
        _open(f"c{i}", catalog[i % 4].title_id, 0.01 * i) for i in range(8)
    ]
    requests.append(_open("c8", "T99", 0.005))
    return cluster, cluster.serve(requests, chunks=3)


def node_reject_cluster_fixture(obs):
    """One cold node routed four distinct titles: its server's real
    ``n_max = 3`` refuses the fourth batch, so the *node* rejects a
    session the router had admitted."""
    cluster, catalog = build_cluster(
        nodes=1, titles=4, seconds=1.0, per_node_streams=8,
        min_replicas=1, clients=[f"c{i}" for i in range(4)], obs=obs,
        warm=False,
    )
    return cluster, cluster.serve(
        [_open(f"c{i}", catalog[i].title_id, 0.01 * i) for i in range(4)],
        chunks=2,
    )


#: name -> (the scenario whose observability preset it runs under, body);
#: a body returns (the server or cluster it drove, its outcome).
REQUEST_FIXTURES = {
    "lifecycle": ("server-steady", lifecycle_fixture),
    "overload": ("server-steady", overload_fixture),
    "cluster-stranded": ("cluster-scale", stranded_cluster_fixture),
    "cluster-node-reject": ("cluster-scale", node_reject_cluster_fixture),
}


def run_request_fixture(name: str, profile: bool = False):
    """(observer, the stack driven, the outcome) of one request fixture."""
    preset, body = REQUEST_FIXTURES[name]
    obs = REGISTRY[preset].smoke(seed=0).observability(profile=profile)
    return (obs, *body(obs))


def observed_runs():
    """``(key, observer)`` of every pinned run, each run once."""
    for name in sorted(REGISTRY):
        for seed in SEEDS:
            for profile in (False, True):
                scenario = REGISTRY[name].smoke(seed=seed)
                obs = scenario.observability(profile=profile)
                if not obs.enabled:
                    continue
                scenario.run(obs)
                yield (
                    f"{name}/seed{seed}/"
                    f"{'profiled' if profile else 'plain'}", obs,
                )
    for preset, build in PRESETS.items():
        for seed in SEEDS:
            obs = build(seed=seed)
            SCALE.smoke(seed=seed).run(obs)
            yield f"scale/seed{seed}/{preset}", obs
    for key, scenario in _sampled_fixtures():
        for label, build in (
            ("for_scale", Observability.for_scale),
            ("for_scale+profiler", _sampled_profiled),
        ):
            obs = build(seed=scenario.seed)
            scenario.run(obs)
            yield f"{key}/{label}", obs
    for name in REQUEST_FIXTURES:
        for profile in (False, True):
            obs = run_request_fixture(name, profile)[0]
            yield (
                f"request/{name}/{'profiled' if profile else 'plain'}", obs
            )


@pytest.fixture(scope="module")
def pinned():
    """(export digests, profile sections) of :func:`observed_runs`."""
    digests, sections = {}, {}
    for key, obs in observed_runs():
        digests[key] = _export(obs)
        if obs.profiler is not None:
            sections[key] = obs.snapshot_dict()["profile"]
    return digests, sections


def test_exports_match_pinned_digests(golden, pinned):
    digests, sections = pinned
    assert len(digests) == 50 and len(sections) == 25
    golden(
        "export_digests.json",
        json.dumps(digests, indent=2, sort_keys=True),
    )


#: The phases a drive's, a cache's or fault recovery's own record feeds.
KEPT_PHASES = ("seek", "transfer", "cache_lookup", "fault_recovery")


def _assert_rows_agree(now, then, where):
    """Two ``{phase: {"ops", "cost_s"}}`` maps agree on the kept phases:
    the same ones present, ops equal, modeled seconds to 1e-9 relative
    (the view sums a drive's seconds in another order than per access)."""
    then = {phase: then[phase] for phase in KEPT_PHASES if phase in then}
    assert now.keys() == then.keys(), where
    for phase, row in now.items():
        assert row["ops"] == then[phase]["ops"], (where, phase)
        assert math.isclose(
            row["cost_s"], then[phase]["cost_s"], rel_tol=1e-9
        ), (where, phase)


def test_profile_sections_match_the_pinned_ones(pinned, request):
    """Per-stream rows, checkpoint counts and every kept phase's ops in
    ``phases`` / ``per_drive`` / ``per_node`` are exactly the pinned
    ones; modeled seconds and shares agree to 1e-9."""
    sections = pinned[1]
    path = GOLDEN_DIR / "profile_sections.json"
    if request.config.getoption("--regen-golden"):
        path.write_text(json.dumps(sections, indent=2, sort_keys=True) + "\n")
        return
    pinned_sections = json.loads(path.read_text())
    assert sections.keys() == pinned_sections.keys()
    for key, now in sections.items():
        then = pinned_sections[key]
        assert now["per_stream"] == then["per_stream"], key
        assert now["checkpoints"] == then["checkpoints"], key
        _assert_rows_agree(now["phases"], then["phases"], key)
        for phase, row in now["phases"].items():
            assert math.isclose(
                row["share"], then["phases"][phase]["share"], rel_tol=1e-9
            ), (key, phase)
        assert math.isclose(
            now["total_cost_s"], then["total_cost_s"], rel_tol=1e-9
        ), key
        for scope in ("per_drive", "per_node"):
            kept = {
                name: rows for name, rows in then[scope].items()
                if set(rows) & set(KEPT_PHASES)
            }
            assert now[scope].keys() == kept.keys(), (key, scope)
            for name, rows in now[scope].items():
                _assert_rows_agree(rows, kept[name], (key, scope, name))


def test_fixture_reaches_both_definitions_of_consumption_end():
    """The trap the digests exist for: a miss-free stream's span ends at
    ``deadline + duration`` of its last block, a stalled one's at the
    running fold — both must be exercised on *sampled* indexes."""
    fixtures = dict(_sampled_fixtures())
    for key, continuous in (
        ("scale-continuous-sampled", True),
        ("scale-stalled-sampled", False),
    ):
        obs = Observability.for_scale(seed=0)
        run = fixtures[key].run(obs)
        assert all(
            m.continuous is continuous for m in run.result.metrics.values()
        )
        sampled = {
            event.block_index for event in obs.timeline
            if event.stage.value == "consumed"
        }
        assert {0, 7, 64, 128} <= sampled and 8 not in sampled
    obs = Observability.for_scale(seed=17)
    fixtures["fault-sampled-seed17"].run(obs)
    skipped = {
        e.block_index for e in obs.timeline if e.stage.value == "skipped"
    }
    assert 64 in skipped
    assert obs.tracer.spans(name="fault.skip")


def _statuses(obs, name):
    return {span.status for span in obs.tracer.spans(name=name)}


def test_request_fixtures_reach_what_the_smoke_scenarios_do_not():
    """Each request fixture must actually produce the spans, statuses
    and counters its digest is there to pin."""
    from repro.api import RejectReason, SessionState

    obs, _, (readmitted, refused, epoch) = run_request_fixture("lifecycle")
    assert readmitted.state is SessionState.PLAYING
    assert refused.state is SessionState.REJECTED
    assert len(epoch.statuses) == 2
    spans = obs.snapshot_dict()["spans"]["by_name"]
    assert {"server.play", "server.pause", "server.resume",
            "server.stop"} <= spans.keys()
    assert {"rejected", "stopped", "ok"} == _statuses(obs, "server.request")
    assert {"destructive", "ok"} == _statuses(obs, "server.pause")
    resumes = [
        span.status for span in obs.tracer.spans(name="server.admit")
        if span.attrs["path"] == "resume"
    ]
    assert resumes == ["ok", "rejected"]

    obs, _, (rejects, epoch) = run_request_fixture("overload")
    assert {response.reject for response in rejects} == {
        RejectReason.CAPACITY, RejectReason.QUEUE_FULL,
        RejectReason.UNKNOWN_ROPE, RejectReason.ACCESS_DENIED,
        RejectReason.EMPTY_INTERVAL,
    }
    assert "requeued" in _statuses(obs, "server.admit")
    assert "requeued" in _statuses(obs, "server.request")
    assert any(status.cache_admitted for status in epoch.statuses)
    counters = obs.registry.snapshot_dict()["counters"]
    assert counters["server.reject.queue_full"] == 1
    assert counters["server.sessions_rejected"] == len(rejects) == 6

    obs, _, result = run_request_fixture("cluster-stranded")
    counters = obs.registry.snapshot_dict()["counters"]
    assert counters["cluster.rejects.router"] == 3
    assert counters["cluster.handoffs_stranded.node-01"] == 2
    assert counters["server.reject.unknown_rope"] == 1
    assert {"stranded"} == _statuses(obs, "cluster.handoff")
    assert all(record.to_node is None for record in result.handoffs)

    obs, _, result = run_request_fixture("cluster-node-reject")
    counters = obs.registry.snapshot_dict()["counters"]
    assert counters["cluster.rejects.node-00"] == 1
    assert "cluster.rejects.router" not in counters
    assert [r.reject for r in result.rejects] == [RejectReason.CAPACITY]
