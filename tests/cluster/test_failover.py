"""Node-kill failover: deterministic death, handoff, clean resumption."""

import pytest

from repro.api import SessionState
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.scenarios import get

pytestmark = pytest.mark.cluster

CLUSTER = get("cluster-scale")


@pytest.fixture(scope="module")
def failover_run():
    # One shared run: the scenario is deterministic, so every test
    # reads the same facts.
    # The four-node node-kill run is the matrix-default sizing.
    return CLUSTER.from_matrix().run()


class TestNodeDeath:
    def test_killed_node_is_reported_dead(self, failover_run):
        nodes = {n.node_id: n for n in failover_run.result.nodes}
        assert nodes["node-01"].alive is False
        survivors = [
            n for n in failover_run.result.nodes if n.alive
        ]
        assert len(survivors) == 3

    def test_node_death_is_counted(self, failover_run):
        registry = failover_run.obs.registry
        assert registry.peek_counter(
            "cluster.node_deaths.node-01"
        ) == 1


class TestHandoff:
    def test_affected_sessions_resume_elsewhere(self, failover_run):
        assert failover_run.result.handoffs
        for record in failover_run.result.handoffs:
            assert record.from_node == "node-01"
            assert record.to_node is not None
            assert record.to_node != "node-01"

    def test_acceptance_bar_over_90_percent_clean(self, failover_run):
        assert failover_run.result.handoff_clean_ratio > 0.9
        assert failover_run.healthy()

    def test_handed_off_sessions_complete_continuously(
        self, failover_run
    ):
        moved = {
            r.session_id for r in failover_run.result.handoffs
        }
        by_id = {
            s.session_id: s for s in failover_run.result.statuses
        }
        for session_id in moved:
            status = by_id[session_id]
            assert status.state is SessionState.COMPLETED
            assert status.handoffs >= 1
            assert status.continuous

    def test_handoff_clean_slo_holds(self, failover_run):
        summary = failover_run.obs.slo.summary_dict()
        assert "handoff-clean" not in summary["breached_now"]

    def test_every_session_still_continuous(self, failover_run):
        result = failover_run.result
        assert result.continuous_sessions == result.admitted
        assert not result.rejects


class TestStrandedSessions:
    def test_no_surviving_replica_is_a_dirty_handoff(self):
        # min_replicas=2 on 2 nodes: killing one leaves titles with a
        # single replica; the survivor's slack caps how many sessions
        # can land, so an undersized survivor strands the rest.
        run = CLUSTER.from_matrix(
            nodes=2,
            sessions=8,
            titles=2,
            per_node_streams=4,
            kill_node=1,
            kill_chunk=1,
            chunks=4,
        ).run()
        stranded = [
            r for r in run.result.handoffs if r.to_node is None
        ]
        assert stranded, "expected at least one stranded session"
        by_id = {s.session_id: s for s in run.result.statuses}
        for record in stranded:
            assert not record.clean
            assert by_id[record.session_id].state is (
                SessionState.REJECTED
            )


class TestSmokeScenario:
    def test_smoke_gate_facts(self):
        run = CLUSTER.smoke().run()
        result = run.result
        assert result.admitted == 12
        assert result.continuous_sessions == 12
        assert not result.rejects
        assert result.handoffs
        assert result.handoffs_clean == len(result.handoffs)
        assert run.healthy()


class TestFaultPlanForwarding:
    def test_transient_faults_reach_node_drives(self):
        # Non-HEAD faults in the plan attach to the addressed node's
        # private drive injector instead of killing anything.
        from repro.cluster import build_cluster

        plan = FaultPlan([
            FaultSpec(
                kind=FaultKind.TRANSIENT,
                at_op=1,
                drive_index=0,
            )
        ], seed=3)
        cluster, _ = build_cluster(
            nodes=3, titles=3, per_node_streams=8, fault_plan=plan,
            warm=False,
        )
        drives = [
            node.server.mrs.msm.drive for node in cluster.nodes
        ]
        assert drives[0].injector is not None
        assert drives[1].injector is None
        assert all(node.alive for node in cluster.nodes)

    def test_plan_addressing_a_missing_node_is_an_error(self):
        from repro.cluster import build_cluster
        from repro.errors import ParameterError

        plan = FaultPlan([
            FaultSpec(
                kind=FaultKind.HEAD_FAILURE, at_op=0, drive_index=9
            )
        ], seed=3)
        with pytest.raises(ParameterError, match="node index 9"):
            build_cluster(
                nodes=2, titles=2, per_node_streams=4,
                fault_plan=plan, warm=False,
            )
