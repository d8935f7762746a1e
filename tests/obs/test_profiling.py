"""Cost-attribution profiler tests: a view, determinism, node scopes.

The profiler's contract has three legs the tests pin separately:

* **A view, not a second ledger** — ``seek`` / ``transfer`` /
  ``cache_lookup`` are read off the ``DriveStats`` / ``CacheStats`` of
  the drives and caches attached to the observer (each counted once,
  from the moment it was attached, under the node it was attached
  through); only fault-recovery delay and per-stream attribution are
  written.  Shares are cost-weighted and sum to 1; rankings are fully
  ordered.  (Exact conservation against the stats on every registered
  scenario is a leg of ``tests/test_scenario_contract.py``.)
* **Determinism** — everything is modeled time, so the summary of a
  fixed-seed scenario serializes byte-identically across runs, and
  checkpoint decimation is a pure function of the call sequence.
* **A node scope is a label** — a :class:`ScopedObservability` is the
  parent's own registry, timeline, audit and spans under a node id, so a
  write through it lands once, the parent snapshot is byte-identical to
  flat sharing, and the id shows only in the profile's ``per_node``.
"""

import json

import pytest

from repro.disk import BlockCache, CachedDrive, build_drive
from repro.errors import ParameterError
from repro.obs import (
    PHASES,
    CostProfiler,
    Observability,
    ScopedObservability,
)
from repro.obs.profiling import CHECKPOINT_LIMIT
from repro.obs.registry import SEEK_TIME_BUCKETS
from repro.scenarios import get

pytestmark = pytest.mark.profile


def _profiled(seed=0):
    obs = Observability(seed=seed)
    obs.enable_profiler()
    return obs


def _watched_drive(view, label="drive", reads=()):
    """A testbed drive attached through *view*, then read at *reads*."""
    drive = build_drive()
    drive.profile_label = label
    drive.attach_observer(view)
    for slot in reads:
        drive.read_slot(slot)
    return drive


def _positioning(drive):
    return drive.stats.seek_time + drive.stats.rotation_time


def _shares(profiler):
    phases = profiler.summary_dict()["phases"]
    return {phase: row["share"] for phase, row in phases.items()}


class TestCostProfiler:
    def test_totals_and_cost_weighted_shares(self):
        obs = _profiled()
        drive = _watched_drive(obs, reads=(0, 900, 30))
        profiler, stats = obs.profiler, drive.stats
        # Each access is one seek and one transfer.
        assert profiler.summary_dict()["total_ops"] == 6
        assert profiler.summary_dict()["total_cost_s"] == pytest.approx(
            stats.busy_time
        )
        assert profiler.drive_busy_time() == stats.busy_time
        shares = _shares(profiler)
        assert shares["seek"] == pytest.approx(
            _positioning(drive) / stats.busy_time
        )
        assert shares["transfer"] == pytest.approx(
            stats.transfer_time / stats.busy_time
        )
        assert shares["cache_lookup"] == shares["fault_recovery"] == 0.0
        assert sum(shares.values()) == pytest.approx(1.0, abs=1e-9)

    def test_empty_profiler_has_zero_shares(self):
        shares = _shares(CostProfiler())
        assert set(shares) == set(PHASES)
        assert all(value == 0.0 for value in shares.values())
        # A watched drive nothing has read yet changes none of that.
        obs = _profiled()
        _watched_drive(obs)
        assert _shares(obs.profiler) == shares
        assert obs.profiler.summary_dict()["per_drive"] == {}

    def test_only_what_happens_after_the_attach_is_counted(self):
        obs = _profiled()
        drive = build_drive()
        drive.read_slot(500)
        before = drive.stats.transfer_time
        drive.attach_observer(obs)
        drive.read_slot(20)
        phases = obs.profiler.summary_dict()["phases"]
        assert phases["transfer"]["ops"] == 1
        assert phases["transfer"]["cost_s"] == pytest.approx(
            drive.stats.transfer_time - before
        )

    def test_top_cost_centers_ranking_and_bounds(self):
        obs = _profiled()
        cached = CachedDrive(
            _watched_drive(obs), BlockCache(4), hit_time=0.0, obs=obs
        )
        for slot in (0, 900, 900, 0):
            cached.read_slot(slot)
        profiler = obs.profiler
        top = profiler.top_cost_centers(3)
        # Transfer outweighs positioning on the testbed drive; probes
        # cost nothing but were made; no fault occurred.
        assert [entry["phase"] for entry in top] == [
            "transfer", "seek", "cache_lookup",
        ]
        assert [entry["ops"] for entry in top] == [2, 2, 4]
        assert len(profiler.top_cost_centers()) == len(PHASES)
        with pytest.raises(ParameterError):
            profiler.top_cost_centers(0)

    def test_cache_hits_cost_their_hit_time(self):
        obs = _profiled()
        cached = CachedDrive(
            _watched_drive(obs, "d0"), BlockCache(4), hit_time=0.002, obs=obs
        )
        for slot in (7, 7, 7, 8):
            cached.read_slot(slot)
        row = obs.profiler.summary_dict()["per_drive"]["d0"]["cache_lookup"]
        assert row == {"ops": 4, "cost_s": 2 * 0.002}

    def test_disabled_profiler_records_nothing(self):
        # A profiler exists iff attached; on a disabled observer nothing
        # reports, so nothing registers with it either.
        obs = Observability(enabled=False)
        profiler = obs.enable_profiler()
        drive = _watched_drive(obs, reads=(3,))
        assert not drive.observed
        assert profiler.summary_dict()["total_ops"] == 0
        assert profiler.summary_dict()["checkpoints"] == 0

    def test_checkpoint_decimation_stays_bounded(self):
        obs = _profiled()
        drive = _watched_drive(obs)
        for round_number in range(10_000):
            if round_number % 100 == 0:
                drive.read_slot(round_number % drive.slots)
            obs.profiler.checkpoint(float(round_number))
        summary = obs.profiler.summary_dict()
        assert 0 < summary["checkpoints"] <= CHECKPOINT_LIMIT
        times = [time for time, _ in obs.profiler._checkpoints]
        assert times == sorted(times)
        transfer = [costs[1] for _, costs in obs.profiler._checkpoints]
        assert transfer == sorted(transfer) and transfer[-1] > 0.0

    def test_checkpoint_series_is_deterministic(self):
        def series(calls):
            obs = _profiled()
            drive = _watched_drive(obs)
            for index in range(calls):
                drive.read_slot(index * 7 % drive.slots)
                obs.profiler.checkpoint(index * 0.5)
            return obs.profiler._checkpoints

        assert series(700) == series(700)

    def test_chrome_counter_events_cover_costful_phases_only(self):
        obs = _profiled()
        cached = CachedDrive(_watched_drive(obs), BlockCache(4), obs=obs)
        cached.read_slot(5)  # one probe: ops only, no cost
        obs.profiler.checkpoint(1.0)
        events = obs.profiler.chrome_counter_events()
        assert {event["name"] for event in events} == {
            "profile.seek", "profile.transfer",
        }
        event = events[0]
        assert event["ph"] == "C"
        assert event["ts"] == pytest.approx(1e6)
        assert event["args"]["cost_ms"] == pytest.approx(
            _positioning(cached.inner) * 1e3
        )

    def test_per_drive_and_per_node_attribution(self):
        obs = _profiled()
        first = _watched_drive(obs.scoped("n0"), "d0", reads=(100,))
        second = _watched_drive(obs.scoped("n1"), "d0", reads=(2000,))
        summary = obs.profiler.summary_dict()
        assert summary["per_drive"]["d0"]["seek"]["ops"] == 2
        assert summary["per_node"]["n0"]["seek"]["cost_s"] == (
            _positioning(first)
        )
        assert summary["per_node"]["n1"]["seek"]["cost_s"] == (
            _positioning(second)
        )
        assert "unseen" not in summary["per_node"]

    def test_scoped_view_attributes_node_and_memoizes(self):
        obs = _profiled()
        view = obs.scoped("node-07")
        drive = _watched_drive(view, reads=(40,))
        # MSM construction, a playback session and a scenario may each
        # attach the same observer (or the root) again: counted once,
        # under the node it was first attached through.
        drive.attach_observer(view)
        drive.attach_observer(obs)
        drive.read_slot(41)
        assert len(obs.profiler._watched) == 1
        summary = obs.profiler.summary_dict()
        assert summary["per_node"]["node-07"]["transfer"]["ops"] == 2
        assert summary["total_cost_s"] == (
            pytest.approx(drive.stats.busy_time)
        )

    def test_label_is_read_when_the_summary_is_made(self):
        obs = _profiled()
        drive = _watched_drive(obs, reads=(9,))
        drive.profile_label = "renamed-after-attach"
        assert obs.profiler.summary_dict()["per_drive"].keys() == {
            "renamed-after-attach"
        }

    def test_fault_delay_is_written_per_outcome_and_per_node(self):
        profiler = CostProfiler()
        profiler.fault(0.25)
        profiler.fault(0.5, node="n3")
        summary = profiler.summary_dict()
        assert summary["phases"]["fault_recovery"] == {
            "ops": 2, "cost_s": 0.75, "share": 1.0,
        }
        assert summary["per_node"] == {
            "n3": {"fault_recovery": {"ops": 1, "cost_s": 0.5}},
        }
        assert summary["per_drive"] == {}

    def test_render_lists_centers_then_drives_then_nodes(self):
        obs = _profiled()
        _watched_drive(obs.scoped("n0"), "n0.drive", reads=(100, 200))
        lines = obs.profiler.render(top=2)
        assert lines[0].startswith("  total: 4 ops")
        assert [line.split()[0] for line in lines[2:]] == [
            "transfer", "seek", "drive", "node",
        ]


def _profiled_scale_section():
    scenario = get("scale")(streams=5, blocks_per_stream=20, seed=11)
    run = scenario.run(scenario.observability(profile=True))
    return scenario.profile_section(run)


class TestProfiledScenarios:
    def test_profiled_scale_section_is_byte_stable(self):
        def section_json():
            return json.dumps(
                _profiled_scale_section(), sort_keys=True, indent=2
            )

        assert section_json() == section_json()

    def test_profiled_scale_attribution_is_complete(self):
        section = _profiled_scale_section()
        assert set(section["phases"]) == set(PHASES)
        share_sum = sum(
            phase["share"] for phase in section["phases"].values()
        )
        assert abs(share_sum - 1.0) <= 1e-9
        assert section["blocks_delivered"] == 100
        # Every delivered block paid one seek and one transfer.
        assert section["phases"]["seek"]["ops"] == 100
        assert section["phases"]["transfer"]["ops"] == 100
        assert section["per_drive"].keys() == {"testbed"}
        assert section["per_stream"]["count"] == 5
        assert section["checkpoints"] >= 1
        # "wall_time_s" must stay out of the deterministic artifact.
        assert "wall_time_s" not in section

    def test_fault_recovery_phase_attributes_injected_faults(self):
        obs = Observability(seed=5)
        obs.enable_profiler()
        get("fault")(seed=5).run(obs)
        summary = obs.profiler.summary_dict()
        recovery = summary["phases"]["fault_recovery"]
        assert recovery["ops"] > 0
        assert recovery["cost_s"] > 0.0

    def test_server_hot_scenario_records_cache_lookups(self):
        obs = Observability.for_scale(seed=0)
        obs.enable_profiler()
        get("server-hot").smoke(seed=0).run(obs)
        phases = obs.profiler.summary_dict()["phases"]
        assert phases["cache_lookup"]["ops"] > 0

    def test_observer_snapshot_gains_profile_section_only_when_attached(
        self,
    ):
        obs = Observability(seed=0)
        assert "profile" not in obs.snapshot_dict()
        obs.enable_profiler()
        assert "profile" in obs.snapshot_dict()

    def test_chrome_trace_rides_counter_tracks_alongside_spans(self):
        obs = _profiled()
        span = obs.tracer.start_span("work", 0.0)
        obs.tracer.end_span(span, 1.0)
        _watched_drive(obs, reads=(11,))
        obs.profiler.checkpoint(1.0)
        document = obs.to_chrome_trace()
        phases = [
            event for event in document["traceEvents"]
            if event.get("ph") == "C"
        ]
        assert phases and all(
            event["name"].startswith("profile.") for event in phases
        )
        # The span export itself is untouched.
        assert any(
            event.get("name") == "work"
            for event in document["traceEvents"]
        )


class TestScopedObservability:
    def test_requires_node_id(self):
        with pytest.raises(ParameterError):
            ScopedObservability(Observability(seed=0), "")

    def test_write_through_a_view_lands_once(self):
        obs = Observability(seed=0)
        view = obs.scoped("n0")
        assert view.registry is obs.registry
        view.registry.counter("x").inc(3)
        view.registry.gauge("g").set(2.5)
        view.registry.histogram("h", SEEK_TIME_BUCKETS).observe(0.5)
        with view.registry.timed("t"):
            pass
        metrics = obs.registry.snapshot_dict()
        assert metrics["counters"]["x"] == 3
        assert metrics["gauges"]["g"] == 2.5
        assert metrics["histograms"]["h"]["count"] == 1
        assert metrics["timers"]["t"]["calls"] == 1

    def test_parent_snapshot_equals_flat_sharing(self):
        def drive_writes(obs, scoped):
            handles = (
                [obs.scoped("a"), obs.scoped("b")] if scoped
                else [obs, obs]
            )
            for index, view in enumerate(handles):
                view.registry.counter("ops").inc(index + 1)
                view.registry.histogram(
                    "lat", SEEK_TIME_BUCKETS
                ).observe(0.1 * (index + 1))
            return obs.snapshot()

        flat = drive_writes(Observability(seed=0), scoped=False)
        federated = drive_writes(Observability(seed=0), scoped=True)
        assert flat == federated

    def test_event_surfaces_forward_to_parent(self):
        obs = Observability(seed=0)
        view = obs.scoped("n0")
        assert view.timeline is obs.timeline
        assert view.audit is obs.audit
        assert view.tracer is obs.tracer
        obs.enable_slos()
        assert view.slo is obs.slo
        scoped_again = view.scoped("n1")
        assert scoped_again.parent is obs and scoped_again.node_id == "n1"

    def test_scoped_profiler_attributes_to_node(self):
        obs = _profiled()
        view = obs.scoped("n0")
        assert view.profiler is obs.profiler
        _watched_drive(view, reads=(11,))
        per_node = obs.profiler.summary_dict()["per_node"]
        assert per_node["n0"]["seek"]["ops"] == 1

    def test_node_snapshot_carries_profile_attribution(self):
        obs = _profiled()
        drive = _watched_drive(obs.scoped("n0"), reads=(11,))
        # The one snapshot is where a node's numbers are read.
        per_node = obs.snapshot_dict()["profile"]["per_node"]
        assert per_node["n0"]["transfer"]["cost_s"] == (
            drive.stats.transfer_time
        )

    def test_slo_and_profiler_attached_after_scoping_are_seen(self):
        obs = Observability(seed=0)
        view = obs.scoped("n0")
        assert view.slo is None and view.profiler is None
        slo, profiler = obs.enable_slos(), obs.enable_profiler()
        assert view.slo is slo and view.profiler is profiler
        # A component built against the view afterwards reports to them.
        _watched_drive(view, reads=(11,))
        assert "n0" in obs.profiler.summary_dict()["per_node"]
