"""Unit tests for the typed public API surface (repro.api)."""

import dataclasses

import pytest

import repro
from repro.api import (
    Media,
    OpenSessionRequest,
    OpenSessionResponse,
    RejectReason,
    ServeResult,
    SessionState,
    SessionStatus,
)

pytestmark = pytest.mark.server


def _status(session_id="C0001", **overrides):
    defaults = dict(
        session_id=session_id,
        client_id="alice",
        rope_id="R0001",
        state=SessionState.COMPLETED,
        blocks_delivered=10,
        misses=0,
        skips=0,
        startup_latency=0.05,
        request_id="Q0001",
    )
    defaults.update(overrides)
    return SessionStatus(**defaults)


class TestMessages:
    def test_requests_are_frozen(self):
        request = OpenSessionRequest(client_id="alice", rope_id="R0001")
        with pytest.raises(dataclasses.FrozenInstanceError):
            request.rope_id = "R0002"

    def test_open_request_defaults(self):
        request = OpenSessionRequest(client_id="alice", rope_id="R0001")
        assert request.arrival == 0.0
        assert request.start == 0.0
        assert request.length is None
        assert request.media is Media.VIDEO
        assert request.auto_play

    def test_response_carries_typed_reject(self):
        response = OpenSessionResponse(
            session_id=None, accepted=False,
            reject=RejectReason.CAPACITY,
        )
        assert not response.accepted
        assert response.reject is RejectReason.CAPACITY
        assert response.cache_admitted is False


class TestSessionStatus:
    def test_continuous_iff_no_misses(self):
        assert _status(misses=0).continuous
        assert not _status(misses=1).continuous

    def test_to_dict_key_set_is_stable(self):
        payload = _status().to_dict()
        assert set(payload) == {
            "session_id", "client_id", "rope_id", "request_id", "state",
            "blocks_delivered", "misses", "skips", "startup_latency",
            "batch_leader", "cache_admitted", "continuous",
            "node_id", "handoffs",
        }
        assert payload["state"] == "completed"

    def test_cluster_addressing_defaults_to_unplaced(self):
        status = _status()
        assert status.node_id is None
        assert status.handoffs == 0
        placed = _status(node_id="node-02", handoffs=1)
        assert placed.to_dict()["node_id"] == "node-02"
        assert placed.to_dict()["handoffs"] == 1


class TestServeResult:
    def _result(self):
        statuses = (
            _status("C0001"),
            _status("C0002", misses=2),
            _status("C0003", state=SessionState.REJECTED),
        )
        return ServeResult(
            statuses=statuses,
            rejects=(
                OpenSessionResponse(
                    session_id="C0003", accepted=False,
                    reject=RejectReason.CAPACITY,
                ),
            ),
            rounds=12,
            k_used=2,
            batches=2,
        )

    def test_admitted_excludes_rejected(self):
        assert self._result().admitted == 2

    def test_continuous_counts_glitch_free_completions(self):
        assert self._result().continuous_sessions == 1

    def test_total_misses_sums_sessions(self):
        assert self._result().total_misses == 2

    def test_status_of_lookup(self):
        result = self._result()
        assert result.status_of("C0002").misses == 2
        with pytest.raises(KeyError):
            result.status_of("C9999")

    def test_to_dict_shape(self):
        payload = self._result().to_dict()
        assert payload["admitted"] == 2
        assert payload["rejects"][0]["reject"] == "capacity"
        assert len(payload["sessions"]) == 3


class TestClusterMessages:
    def _cluster_result(self):
        from repro.api import ClusterServeResult, HandoffRecord, NodeStatus

        statuses = (
            _status("S0001", node_id="node-00"),
            _status("S0002", node_id="node-01", handoffs=1, misses=1),
            _status("S0003", state=SessionState.REJECTED),
        )
        return ClusterServeResult(
            statuses=statuses,
            rejects=(
                OpenSessionResponse(
                    session_id="S0003", accepted=False,
                    reject=RejectReason.NO_REPLICA,
                ),
            ),
            nodes=(
                NodeStatus(node_id="node-00", sessions=1),
                NodeStatus(node_id="node-01", alive=False),
            ),
            handoffs=(
                HandoffRecord(
                    session_id="S0002", rope_id="T01",
                    from_node="node-01", to_node="node-00",
                    at_time=0.5, clean=True,
                ),
            ),
        )

    def test_cluster_messages_are_frozen(self):
        from repro.api import NodeStatus

        node = NodeStatus(node_id="node-00")
        with pytest.raises(dataclasses.FrozenInstanceError):
            node.alive = False

    def test_no_replica_is_a_typed_reject(self):
        assert RejectReason.NO_REPLICA.value == "no_replica"

    def test_admitted_excludes_rejected(self):
        assert self._cluster_result().admitted == 2

    def test_continuous_requires_glitch_free_completion(self):
        # S0002 handed off but recorded a miss: not continuous.
        assert self._cluster_result().continuous_sessions == 1

    def test_handoff_record_round_trips(self):
        record = self._cluster_result().handoffs[0]
        payload = record.to_dict()
        assert payload["from_node"] == "node-01"
        assert payload["to_node"] == "node-00"
        assert payload["clean"] is True

    def test_to_dict_carries_nodes_and_handoffs(self):
        payload = self._cluster_result().to_dict()
        assert len(payload["nodes"]) == 2
        assert len(payload["handoffs"]) == 1
        assert payload["rejects"][0]["reject"] == "no_replica"


class TestFacade:
    def test_api_types_reexported_at_top_level(self):
        assert repro.OpenSessionRequest is OpenSessionRequest
        assert repro.MediaServer.__name__ == "MediaServer"
        assert repro.api is not None
        assert repro.server is not None

    def test_cluster_types_reexported_at_top_level(self):
        from repro.api import ClusterServeResult, HandoffRecord

        assert repro.ClusterServeResult is ClusterServeResult
        assert repro.HandoffRecord is HandoffRecord
        assert repro.MediaCluster.__name__ == "MediaCluster"
        assert repro.cluster is not None

    def test_deprecated_aliases_are_gone(self):
        # The PEP 562 compatibility shims were removed in 2.0: old
        # aliases now fail loudly instead of warning and resolving.
        for name in (
            "MultimediaStorageManager", "PlaybackSession", "stub_for",
        ):
            with pytest.raises(AttributeError):
                getattr(repro, name)

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            repro.not_a_real_name
