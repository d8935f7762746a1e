"""Unit tests for the MRS<->MSM RPC boundary."""

import pytest

from repro.errors import ParameterError
from repro.media.frames import frames_for_duration
from repro.service.rpc import RpcChannel, stub_for


class Calculator:
    """A trivial target service for channel tests."""

    def add(self, a, b):
        return a + b

    def describe(self, items):
        return {"count": len(items)}

    def _secret(self):
        return 42

    value = 7


class TestRpcChannel:
    def test_invoke_and_log(self):
        channel = RpcChannel("test")
        target = Calculator()
        assert channel.invoke(target, "add", 1, 2) == 3
        assert channel.call_count == 1
        call = channel.calls[0]
        assert call.method == "add"
        assert call.argument_bytes > 0
        assert call.result_bytes > 0

    def test_private_methods_refused(self):
        channel = RpcChannel("test")
        with pytest.raises(ParameterError):
            channel.invoke(Calculator(), "_secret")

    def test_non_callable_refused(self):
        channel = RpcChannel("test")
        with pytest.raises(ParameterError):
            channel.invoke(Calculator(), "value")

    def test_histogram_and_bytes(self):
        channel = RpcChannel("test")
        target = Calculator()
        channel.invoke(target, "add", 1, 2)
        channel.invoke(target, "add", 3, 4)
        channel.invoke(target, "describe", ["a", "b"])
        assert channel.calls_by_method() == {"add": 2, "describe": 1}
        assert channel.bytes_transferred > 0


class TestStub:
    def test_stub_routes_methods(self):
        channel = RpcChannel("test")
        stub = stub_for(Calculator(), channel)
        assert stub.add(2, 3) == 5
        assert channel.call_count == 1

    def test_stub_passes_plain_attributes(self):
        channel = RpcChannel("test")
        stub = stub_for(Calculator(), channel)
        assert stub.value == 7
        assert channel.call_count == 0


class TestMarshalledSizes:
    def test_enum_marshals_as_its_value(self):
        from repro.api import Media, RejectReason
        from repro.service.rpc import estimate_bytes

        assert estimate_bytes(Media.VIDEO) == len(
            Media.VIDEO.value.encode("utf-8")
        )
        assert estimate_bytes(RejectReason.CAPACITY) == len(
            RejectReason.CAPACITY.value.encode("utf-8")
        )

    def test_dataclass_is_envelope_plus_fields(self):
        import dataclasses

        from repro.api import OpenSessionRequest
        from repro.service.rpc import estimate_bytes

        request = OpenSessionRequest(
            client_id="alice", rope_id="R0001", arrival=1.5
        )
        expected = 16 + sum(
            estimate_bytes(getattr(request, f.name))
            for f in dataclasses.fields(request)
        )
        assert estimate_bytes(request) == expected
        # The nested enum field is sized by value, not attribute-guessed.
        assert estimate_bytes(request) > 16

    def test_api_messages_size_nonzero_through_a_channel(self):
        from repro.api import OpenSessionResponse

        channel = RpcChannel("test")

        class Echo:
            def reply(self, message):
                return message

        from repro.service.rpc import estimate_bytes

        response = OpenSessionResponse(session_id="C0001", accepted=True)
        stub = stub_for(Echo(), channel)
        assert stub.reply(response) is response
        call = channel.calls[0]
        assert call.result_bytes == estimate_bytes(response) > 16
        # Arguments carry the args-list + kwargs-dict envelopes on top.
        assert call.argument_bytes == call.result_bytes + 16


class TestSizingCompleteness:
    @staticmethod
    def _example(message_type):
        """A minimal instance of one repro.api message dataclass."""
        from repro.api import (
            HandoffRecord,
            NodeServeResult,
            NodeStatus,
            OpenSessionRequest,
            OpenSessionResponse,
            PauseRequest,
            PlayRequest,
            ResumeRequest,
            ServeResult,
            SessionState,
            SessionStatus,
            StopRequest,
        )
        from repro.api import ClusterServeResult

        status = SessionStatus(
            session_id="S0001", client_id="alice", rope_id="T01",
            state=SessionState.COMPLETED,
        )
        examples = {
            OpenSessionRequest: OpenSessionRequest(
                client_id="alice", rope_id="T01"
            ),
            OpenSessionResponse: OpenSessionResponse(
                session_id="S0001", accepted=True
            ),
            PlayRequest: PlayRequest(session_id="S0001"),
            PauseRequest: PauseRequest(session_id="S0001"),
            ResumeRequest: ResumeRequest(session_id="S0001"),
            StopRequest: StopRequest(session_id="S0001"),
            SessionStatus: status,
            ServeResult: ServeResult(statuses=(status,)),
            NodeStatus: NodeStatus(node_id="node-00"),
            HandoffRecord: HandoffRecord(
                session_id="S0001", rope_id="T01",
                from_node="node-00", to_node="node-01", at_chunk=1,
            ),
            NodeServeResult: NodeServeResult(node_id="node-00"),
            ClusterServeResult: ClusterServeResult(statuses=(status,)),
        }
        return examples.get(message_type)

    def test_every_api_message_is_sized(self):
        # The completeness gate: every dataclass repro.api exports —
        # cluster-addressed messages included — must size through
        # estimate_bytes as envelope + recursive fields.  A new message
        # type without an example here fails loudly instead of falling
        # into the scalar-attribute guess.
        import dataclasses as dc

        from repro import api
        from repro.service.rpc import estimate_bytes

        message_types = [
            getattr(api, name)
            for name in api.__all__
            if isinstance(getattr(api, name), type)
            and dc.is_dataclass(getattr(api, name))
        ]
        assert message_types, "repro.api exports no message dataclasses?"
        for message_type in message_types:
            example = self._example(message_type)
            assert example is not None, (
                f"{message_type.__name__} has no sizing example; "
                "extend TestSizingCompleteness._example"
            )
            expected = 16 + sum(
                estimate_bytes(getattr(example, f.name))
                for f in dc.fields(example)
            )
            assert estimate_bytes(example) == expected, (
                message_type.__name__
            )
            assert estimate_bytes(example) > 16, message_type.__name__

    def test_cluster_messages_cross_a_channel(self):
        from repro.api import NodeStatus
        from repro.service.rpc import estimate_bytes

        channel = RpcChannel("cluster-test")

        class Echo:
            def reply(self, message):
                return message

        stub = stub_for(Echo(), channel)
        node = NodeStatus(node_id="node-07", sessions=3)
        assert stub.reply(node) is node
        assert channel.calls[0].result_bytes == estimate_bytes(node) > 16


class TestBatchAdmissionLogging:
    def test_media_server_admissions_cross_the_channel(self):
        """Every batch admission and release is logged MRS<->MSM with
        marshalled sizes, like the prototype's RPCs."""
        from repro.api import Media, OpenSessionRequest
        from repro.scenarios.server import record_strands
        from repro.server import build_media_server

        server = build_media_server()
        clients = [f"client-{i}" for i in range(4)]
        rope_id = record_strands(server.mrs, 1, 1.0, clients, "rpc")[0]
        server.serve([
            OpenSessionRequest(
                client_id=client, rope_id=rope_id, media=Media.VIDEO
            )
            for client in clients
        ])
        methods = server.channel.calls_by_method()
        # One batch of four -> exactly one physical admit + release.
        assert methods == {"admit": 1, "release": 1}
        for call in server.channel.calls:
            assert call.argument_bytes > 0


class TestLayerBoundary:
    def test_applications_reach_mrs_through_stub(self, mrs, profile):
        """The §5.2 pattern: a rope stub library in front of the MRS."""
        channel = RpcChannel("app<->mrs")
        stub = stub_for(mrs, channel)
        frames = frames_for_duration(profile.video, 2.0, source="rpc")
        request_id, rope_id = stub.record("u", frames=frames)
        stub.stop(request_id)
        rope = stub.get_rope(rope_id)
        assert rope.duration == pytest.approx(2.0)
        methods = channel.calls_by_method()
        assert methods["record"] == 1
        assert methods["stop"] == 1
        # Rope metadata is tiny compared to the media itself (~2 MB):
        # only synchronization information crosses the boundary.
        media_bits = sum(f.size_bits for f in frames)
        assert channel.bytes_transferred * 8 < media_bits / 10
