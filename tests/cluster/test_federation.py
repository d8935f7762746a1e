"""Per-node observability federation tests.

The federation's promise is *equivalence within one run*: every node
reports through a :class:`~repro.obs.ScopedObservability` view and the
router through the ``"cluster"`` scope, and
:func:`~repro.obs.merge_snapshots` over every view reproduces that same
run's shared registry exactly — counters, timer calls and histogram
bucket counts; only the float ``sum`` fields are compared with a
tolerance, because per-node partial sums re-add in a different
association order than interleaved accumulation.  (Byte-identity with
the flat, pre-federation wiring is pinned by the ``cluster-scale/*``
export digests, generated in that era.)

On top of equivalence, the federation must *add* information: per-node
labeled ``cluster.*`` counters, per-node metric breakdowns, node-level
profiler attribution, and causally connected cross-node handoff
traces.
"""

import math

import pytest

from repro.scenarios import get

pytestmark = [pytest.mark.cluster, pytest.mark.profile]

SEED = 20260806


@pytest.fixture(scope="module")
def scoped_run():
    scenario = get("cluster-scale").smoke(seed=SEED)
    return scenario.run(scenario.observability(profile=True))


class TestFlatEquivalence:
    def test_merged_views_reproduce_flat_shared_counters(self, scoped_run):
        merged = scoped_run.obs.merged_node_snapshot_dict()
        shared = scoped_run.obs.registry.snapshot_dict()
        assert shared["counters"]["cluster.handoffs_total"] > 0
        assert merged["metrics"]["counters"] == shared["counters"]
        assert merged["metrics"]["timers"].keys() == (
            shared["timers"].keys()
        )
        for name, entry in merged["metrics"]["timers"].items():
            assert entry["calls"] == shared["timers"][name]["calls"]

    def test_merged_histograms_match_bucketwise(self, scoped_run):
        merged = scoped_run.obs.merged_node_snapshot_dict()
        shared = scoped_run.obs.registry.snapshot_dict()
        histograms = merged["metrics"]["histograms"]
        assert histograms.keys() == shared["histograms"].keys()
        for name, data in histograms.items():
            expected = shared["histograms"][name]
            assert data["buckets"] == list(expected["buckets"]), name
            assert data["counts"] == list(expected["counts"]), name
            assert data["count"] == expected["count"], name
            assert data["overflow"] == expected["overflow"], name
            # Float sums re-associate across per-node partials; only
            # the last ulp may move (see merge_snapshots docs).
            assert math.isclose(
                data["sum"], expected["sum"], rel_tol=1e-9, abs_tol=1e-12
            ), name

    def test_merged_profile_matches_parent_phase_totals(
        self, scoped_run
    ):
        merged = scoped_run.obs.merged_node_snapshot_dict()
        parent = scoped_run.obs.profiler.summary_dict()["phases"]
        for phase, stat in merged["profile"].items():
            # Node-attributed work is a subset of the cluster total
            # (single-node phases like checkpointing carry no node id).
            assert stat["ops"] <= parent[phase]["ops"], phase
            assert stat["cost_s"] <= parent[phase]["cost_s"] + 1e-12


class TestFederatedBreakdowns:
    def test_every_node_and_the_router_scope_have_views(
        self, scoped_run
    ):
        assert scoped_run.obs.node_ids() == [
            "cluster", "node-00", "node-01", "node-02",
        ]

    def test_labeled_cluster_counters_name_nodes(self, scoped_run):
        counters = scoped_run.obs.registry.snapshot_dict()["counters"]
        result = scoped_run.result
        killed = "node-01"
        assert counters[f"cluster.node_deaths.{killed}"] == 1
        assert counters[f"cluster.handoffs_from.{killed}"] == (
            len(result.handoffs)
        )
        moved_to = {
            record.to_node for record in result.handoffs
            if record.to_node is not None
        }
        for node_id in moved_to:
            assert counters[f"cluster.handoffs_to.{node_id}"] >= 1
        clean_total = sum(
            counters.get(f"cluster.handoffs_clean.{node_id}", 0)
            for node_id in moved_to
        )
        assert clean_total == result.handoffs_clean

    def test_node_views_carry_disjoint_local_metrics(self, scoped_run):
        snaps = scoped_run.obs.node_snapshot_dicts()
        # The router's own counters live only in the "cluster" scope.
        cluster_counters = snaps["cluster"]["metrics"]["counters"]
        assert all(
            name.startswith("cluster.") or name.startswith("server.")
            for name in cluster_counters
        )
        # Per-node disk work stays attributed to that node's view.
        for node_id in ("node-00", "node-02"):
            local = snaps[node_id]["metrics"]["counters"]
            assert local["disk.accesses"] > 0
        # The dead node served chunk 0 before the kill, so it has
        # profile attribution too.
        assert snaps["node-01"]["profile"]

    def test_profiler_attributes_per_node_drives(self, scoped_run):
        summary = scoped_run.obs.profiler.summary_dict()
        assert {"node-00", "node-01", "node-02"} <= (
            summary["per_node"].keys()
        )
        assert any(
            label.endswith(".drive") for label in summary["per_drive"]
        )


class TestHandoffTraceConnectivity:
    def test_handoff_traces_stay_connected_across_nodes(
        self, scoped_run
    ):
        tracer = scoped_run.obs.tracer
        handoffs = [
            record for record in scoped_run.result.handoffs
            if record.to_node is not None
        ]
        assert handoffs, "smoke scenario must hand off sessions"
        for record in handoffs:
            roots = tracer.spans(
                name="cluster.request", session=record.session_id
            )
            assert len(roots) == 1, record.session_id
            trace_id = roots[0].trace_id
            assert tracer.trace_is_connected(trace_id), (
                f"handoff trace for {record.session_id} is not one tree"
            )
            handoff_spans = tracer.spans(
                name="cluster.handoff", trace_id=trace_id
            )
            assert len(handoff_spans) == 1
            attrs = handoff_spans[0].attrs
            assert attrs["from"] == record.from_node
            assert attrs["to"] == record.to_node
            serve_nodes = {
                span.attrs["node"]
                for span in tracer.spans(
                    name="cluster.serve", trace_id=trace_id
                )
            }
            # The causal story crosses the kill: chunks served on the
            # dead node and on the failover target share one trace.
            assert record.from_node in serve_nodes
            assert record.to_node in serve_nodes

    def test_stranded_and_rejected_traces_are_still_closed(
        self, scoped_run
    ):
        tracer = scoped_run.obs.tracer
        for span in tracer.spans(name="cluster.request"):
            assert span.end is not None, (
                f"unclosed root span for {span.session}"
            )
