"""Cost-attribution profiler tests: determinism, shares, federation.

The profiler's contract has three legs the tests pin separately:

* **Determinism** — everything recorded is modeled time, so the summary
  of a fixed-seed scenario serializes byte-identically across runs, and
  checkpoint decimation is a pure function of the call sequence.
* **Attribution honesty** — phase shares always sum to 1 (cost-weighted
  when any cost was recorded, op-weighted otherwise), the taxonomy is
  closed (unknown phases raise), and rankings are fully ordered.
* **Federation equivalence** — a :class:`ScopedObservability` pairs
  every metric write into shared + local registries, so the parent
  snapshot is byte-identical to flat sharing and
  :func:`merge_snapshots` over all views reproduces the shared counters
  exactly.
"""

import json

import pytest

from repro.errors import ParameterError
from repro.obs import (
    PHASES,
    CostProfiler,
    Observability,
    ScopedObservability,
    merge_snapshots,
)
from repro.obs.registry import SEEK_TIME_BUCKETS
from repro.scenarios import get

pytestmark = pytest.mark.profile


class TestCostProfiler:
    def test_phase_taxonomy_is_closed(self):
        profiler = CostProfiler()
        with pytest.raises(ParameterError):
            profiler.record("disk_io")

    def test_totals_and_cost_weighted_shares(self):
        profiler = CostProfiler()
        profiler.record("seek", cost=0.3, ops=3)
        profiler.record("transfer", cost=0.7, ops=3)
        profiler.record("admission_scan", ops=10)
        assert profiler.total_ops == 16
        assert profiler.total_cost == pytest.approx(1.0)
        shares = profiler.phase_shares()
        assert shares["seek"] == pytest.approx(0.3)
        assert shares["transfer"] == pytest.approx(0.7)
        assert shares["admission_scan"] == 0.0
        assert sum(shares.values()) == pytest.approx(1.0, abs=1e-9)

    def test_ops_weighted_fallback_when_no_cost(self):
        profiler = CostProfiler()
        profiler.record("admission_scan", ops=3)
        profiler.record("deadline_ordering", ops=1)
        shares = profiler.phase_shares()
        assert shares["admission_scan"] == pytest.approx(0.75)
        assert sum(shares.values()) == pytest.approx(1.0, abs=1e-9)

    def test_empty_profiler_has_zero_shares(self):
        shares = CostProfiler().phase_shares()
        assert set(shares) == set(PHASES)
        assert all(value == 0.0 for value in shares.values())

    def test_top_cost_centers_ranking_and_bounds(self):
        profiler = CostProfiler()
        profiler.record("seek", cost=0.2)
        profiler.record("transfer", cost=0.9)
        profiler.record("cache_lookup", ops=50)
        top = profiler.top_cost_centers(3)
        assert [entry["phase"] for entry in top] == [
            "transfer", "seek", "cache_lookup",
        ]
        assert len(profiler.top_cost_centers()) == len(PHASES)
        with pytest.raises(ParameterError):
            profiler.top_cost_centers(0)

    def test_disabled_profiler_records_nothing(self):
        profiler = CostProfiler(enabled=False)
        profiler.record("seek", cost=1.0)
        profiler.attribute_stream("s1", cost=1.0)
        profiler.checkpoint(1.0)
        assert profiler.total_ops == 0
        assert profiler.summary_dict()["checkpoints"] == 0

    def test_checkpoint_decimation_stays_bounded(self):
        profiler = CostProfiler(checkpoint_limit=16)
        for round_number in range(10_000):
            profiler.record("seek", cost=0.001)
            profiler.checkpoint(float(round_number))
        summary = profiler.summary_dict()
        assert 0 < summary["checkpoints"] <= 16
        times = [time for time, _ in profiler._checkpoints]
        assert times == sorted(times)

    def test_checkpoint_series_is_deterministic(self):
        def series(calls):
            profiler = CostProfiler(checkpoint_limit=8)
            for index in range(calls):
                profiler.record("transfer", cost=0.01)
                profiler.checkpoint(index * 0.5)
            return profiler._checkpoints

        assert series(500) == series(500)

    def test_chrome_counter_events_cover_costful_phases_only(self):
        profiler = CostProfiler()
        profiler.record("seek", cost=0.25)
        profiler.record("admission_scan", ops=10)  # ops only, no cost
        profiler.checkpoint(1.0)
        events = profiler.chrome_counter_events()
        names = {event["name"] for event in events}
        assert names == {"profile.seek"}
        event = events[0]
        assert event["ph"] == "C"
        assert event["ts"] == pytest.approx(1e6)
        assert event["args"]["cost_ms"] == pytest.approx(250.0)

    def test_per_drive_and_per_node_attribution(self):
        profiler = CostProfiler()
        profiler.record("seek", cost=0.1, drive="d0", node="n0")
        profiler.record("seek", cost=0.2, drive="d0", node="n1")
        summary = profiler.summary_dict()
        assert summary["per_drive"]["d0"]["seek"]["ops"] == 2
        assert summary["per_node"]["n0"]["seek"]["cost_s"] == (
            pytest.approx(0.1)
        )
        assert profiler.node_summary("n1")["seek"]["cost_s"] == (
            pytest.approx(0.2)
        )
        assert profiler.node_summary("unseen") == {}

    def test_scoped_view_attributes_node_and_memoizes(self):
        profiler = CostProfiler()
        view = profiler.scoped("node-07")
        assert profiler.scoped("node-07") is view
        view.record("transfer", cost=0.5)
        view.attribute_stream("s0", cost=0.5)
        view.checkpoint(1.0)
        assert profiler.node_summary("node-07")["transfer"]["ops"] == 1
        assert profiler.total_cost == pytest.approx(0.5)

    def test_reset_restores_fresh_state(self):
        profiler = CostProfiler()
        profiler.record("seek", cost=1.0, drive="d", node="n")
        profiler.attribute_stream("s", cost=1.0)
        profiler.checkpoint(1.0)
        profiler.reset()
        assert profiler.total_ops == 0
        summary = profiler.summary_dict()
        assert summary["per_drive"] == {}
        assert summary["per_node"] == {}
        assert summary["checkpoints"] == 0


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
        assert phases["span_finalize"]["ops"] > 0

    def test_observer_snapshot_gains_profile_section_only_when_attached(
        self,
    ):
        obs = Observability(seed=0)
        assert "profile" not in obs.snapshot_dict()
        obs.enable_profiler()
        assert "profile" in obs.snapshot_dict()

    def test_chrome_trace_rides_counter_tracks_alongside_spans(self):
        obs = Observability(seed=0)
        profiler = obs.enable_profiler()
        span = obs.tracer.start_span("work", 0.0)
        obs.tracer.end_span(span, 1.0)
        profiler.record("seek", cost=0.5)
        profiler.checkpoint(1.0)
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

    def test_scoped_views_are_memoized(self):
        obs = Observability(seed=0)
        assert obs.scoped("n0") is obs.scoped("n0")
        assert obs.node_ids() == ["n0"]

    def test_writes_land_in_both_shared_and_local(self):
        obs = Observability(seed=0)
        view = obs.scoped("n0")
        view.registry.counter("x").inc(3)
        view.registry.gauge("g").set(2.5)
        view.registry.histogram("h", SEEK_TIME_BUCKETS).observe(0.5)
        assert obs.registry.peek_counter("x") == 3
        local = view.registry.snapshot_dict()
        assert local["counters"]["x"] == 3
        assert local["gauges"]["g"] == 2.5
        assert local["histograms"]["h"]["count"] == 1

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
        assert view.scoped("n1") is obs.scoped("n1")

    def test_scoped_profiler_attributes_to_node(self):
        obs = Observability(seed=0)
        obs.enable_profiler()
        view = obs.scoped("n0")
        view.profiler.record("seek", cost=0.2)
        assert obs.profiler.node_summary("n0")["seek"]["ops"] == 1

    def test_node_snapshot_carries_profile_attribution(self):
        obs = Observability(seed=0)
        obs.enable_profiler()
        view = obs.scoped("n0")
        view.profiler.record("transfer", cost=0.4)
        snap = view.snapshot_dict()
        assert snap["node_id"] == "n0"
        assert snap["profile"]["transfer"]["cost_s"] == (
            pytest.approx(0.4)
        )


class TestMergeSnapshots:
    def _views(self):
        obs = Observability(seed=0)
        obs.enable_profiler()
        a, b = obs.scoped("a"), obs.scoped("b")
        a.registry.counter("ops").inc(2)
        b.registry.counter("ops").inc(5)
        a.registry.gauge("depth").set(1.0)
        b.registry.gauge("depth").set(4.0)
        a.registry.histogram("lat", SEEK_TIME_BUCKETS).observe(0.1)
        b.registry.histogram("lat", SEEK_TIME_BUCKETS).observe(0.2)
        a.profiler.record("seek", cost=0.1)
        b.profiler.record("seek", cost=0.3)
        return obs, a, b

    def test_counters_sum_gauges_max_histograms_bucketwise(self):
        obs, a, b = self._views()
        merged = merge_snapshots(
            [a.snapshot_dict(), b.snapshot_dict()]
        )
        metrics = merged["metrics"]
        assert metrics["counters"]["ops"] == 7
        assert metrics["counters"]["ops"] == (
            obs.registry.peek_counter("ops")
        )
        assert metrics["gauges"]["depth"] == 4.0
        histogram = metrics["histograms"]["lat"]
        assert histogram["count"] == 2
        assert histogram["sum"] == pytest.approx(0.3)
        assert merged["profile"]["seek"]["ops"] == 2
        assert merged["profile"]["seek"]["cost_s"] == (
            pytest.approx(0.4)
        )

    def test_merge_accepts_json_strings_and_is_stable(self):
        _, a, b = self._views()
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        again = merge_snapshots(
            [a.snapshot_dict(), b.snapshot_dict()]
        )
        assert json.dumps(merged, sort_keys=True) == (
            json.dumps(again, sort_keys=True)
        )

    def test_mismatched_histogram_layouts_raise(self):
        with pytest.raises(ParameterError):
            merge_snapshots([
                {"histograms": {"h": {
                    "buckets": [1.0], "counts": [1], "overflow": 0,
                    "count": 1, "sum": 0.5,
                }}},
                {"histograms": {"h": {
                    "buckets": [2.0], "counts": [1], "overflow": 0,
                    "count": 1, "sum": 0.5,
                }}},
            ])

    def test_merged_node_snapshot_dict_on_observer(self):
        obs, _, _ = self._views()
        merged = obs.merged_node_snapshot_dict()
        assert merged["metrics"]["counters"]["ops"] == 7
        assert obs.node_snapshot_dicts().keys() == {"a", "b"}
