"""Per-node observability tests: one observer, node-scoped views.

Every node of a cluster reports through ``obs.scoped(node_id)`` — the
shared observer under a node id — and the router to the observer
itself, so there is one registry and its totals are those of flat
sharing by construction (byte-identity with the flat wiring is pinned
by the ``cluster-scale/*`` export digests, generated in that era).

What is per node lives *in* that one snapshot: node-labeled
``cluster.*`` counters, the profile's ``per_node`` / ``per_drive``
rows, and causally connected cross-node handoff traces.
"""

import pytest

from repro.api import Media
from repro.obs import MetricsRegistry
from repro.scenarios import get
from repro.service.session import PlaybackSession

pytestmark = [pytest.mark.cluster, pytest.mark.profile]

SEED = 20260806


@pytest.fixture(scope="module")
def scoped_run():
    scenario = get("cluster-scale").smoke(seed=SEED)
    return scenario.run(scenario.observability(profile=True))


class TestFlatEquivalence:
    def test_merged_profile_matches_parent_phase_totals(self, scoped_run):
        summary = scoped_run.obs.profiler.summary_dict()
        # Every drive, cache and fault of a cluster reports through some
        # node's scope, so the per-node rows add up to the flat totals.
        for phase, total in summary["phases"].items():
            rows = [
                table[phase] for table in summary["per_node"].values()
                if phase in table
            ]
            assert sum(row["ops"] for row in rows) == total["ops"], phase
            assert sum(row["cost_s"] for row in rows) == pytest.approx(
                total["cost_s"], rel=1e-9, abs=1e-12
            ), phase


class TestOneRegistry:
    def test_an_observed_cluster_run_builds_no_second_registry(
        self, monkeypatch
    ):
        scenario = get("cluster-scale").smoke(seed=SEED)
        obs = scenario.observability(profile=True)
        built = []
        init = MetricsRegistry.__init__

        def counting_init(registry, *args, **kwargs):
            built.append(registry)
            init(registry, *args, **kwargs)

        monkeypatch.setattr(MetricsRegistry, "__init__", counting_init)
        # build_cluster(obs=obs) over three nodes, then the smoke load.
        run = scenario.run(obs)
        assert len(run.stack.nodes) == 3 and run.result.admitted > 0
        assert built == []
        assert obs.scoped("n0").registry is obs.registry


class TestFederatedBreakdowns:
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

    def test_profiler_attributes_per_node_drives(self, scoped_run):
        summary = scoped_run.obs.profiler.summary_dict()
        # The smoke load is all cache hits, so every disk access is a
        # node warming its replicas: each node's seeks are exactly its
        # replicas' plan blocks, the dead node's included.
        for node in scoped_run.stack.nodes:
            mrs, blocks = node.server.mrs, 0
            for title_id in node.local_ropes:
                request_id = mrs.open_request(
                    "warmer", node.rope_for(title_id), media=Media.VIDEO
                )
                slots = PlaybackSession(mrs).fetch_sequence(request_id).slots
                blocks += sum(slot is not None for slot in slots)
                mrs.stop(request_id)
            seeks = summary["per_node"][node.node_id]["seek"]["ops"]
            assert seeks == blocks > 0, node.node_id
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
