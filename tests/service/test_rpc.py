"""Unit tests for the MRS<->MSM RPC boundary."""

import enum
from dataclasses import dataclass
from typing import NamedTuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.media.frames import frames_for_duration
from repro.service import rpc
from repro.service.rpc import RpcChannel, estimate_bytes, stub_for


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


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Colour(str, enum.Enum):
    RED = "red"


class Plain(enum.Enum):
    WORD = "été"
    NUMBER = 3
    PAIR = (1, 2)


class Span(NamedTuple):
    start: int
    end: float


@dataclass(frozen=True)
class Point:
    x: int
    y: float


@dataclass(frozen=True)
class Labelled:
    point: Point
    name: str = "pt"
    tags: tuple = ()


class Opaque:
    """No dataclass: only its public scalar attributes are counted."""

    count = 3
    _hidden = 99
    name = "ab"
    items = (1, 2)

    def method(self):
        return 0

    @property
    def broken(self):
        raise RuntimeError("not readable")


#: The sizing spec, one row per rule: (id, value, bytes).
SIZING_RULES = [
    ("None", None, 1),
    ("True", True, 1),
    ("False", False, 1),
    ("int", 7, 8),
    ("big int", 2**70, 8),
    ("negative float", -1.5, 8),
    ("str is its UTF-8 length", "été", 5),
    ("empty str", "", 0),
    ("empty list", [], 8),
    ("empty tuple", (), 8),
    ("empty set", set(), 8),
    ("ints", [1, 2, 3], 8 + 3 * 8),
    ("int and float", (1, 2.0), 8 + 8 + 8),
    ("set of ints", {1, 2}, 8 + 2 * 8),
    ("bool beside an int", (True, 1), 8 + 1 + 8),
    ("bools", [True, False], 8 + 1 + 1),
    ("None in a tuple", (None,), 8 + 1),
    ("None beside an int", (None, 1), 8 + 1 + 8),
    ("str beside an int", ("ab", 1), 8 + 2 + 8),
    ("nested sequences", [[1, 2], (3,)], 8 + (8 + 16) + (8 + 8)),
    ("IntEnum beside an int", (Level.HIGH, 1), 8 + 8 + 8),
    ("NamedTuple is a tuple", Span(1, 2.0), 8 + 8 + 8),
    ("empty dict", {}, 8),
    ("dict", {"a": 1, "bc": None}, 8 + (1 + 8) + (2 + 1)),
    ("IntEnum is an int", Level.LOW, 8),
    ("str enum is its str", Colour.RED, 3),
    ("enum is its str value", Plain.WORD, 5),
    ("enum is its int value", Plain.NUMBER, 8),
    ("enum is its tuple value", Plain.PAIR, 8 + 16),
    ("dataclass", Point(1, 2.0), 16 + 8 + 8),
    ("nested dataclasses", Labelled(Point(1, 2.0), "ab", (1, None)),
     16 + (16 + 16) + 2 + (8 + 8 + 1)),
    ("dataclasses in a list", [Point(1, 2.0), Point(3, 4.0)], 8 + 2 * 32),
    ("dataclass type: its scalar class attributes", Labelled, 16 + 2),
    ("object: public scalar attributes", Opaque(), 16 + 8 + 2),
]


class TestSizingRules:
    """``estimate_bytes`` as a table of rules, stated by hand."""

    @pytest.mark.parametrize(
        "value, expected", [row[1:] for row in SIZING_RULES],
        ids=[row[0] for row in SIZING_RULES],
    )
    def test_rule(self, value, expected):
        assert estimate_bytes(value) == expected


def _sized(values, envelope):
    """A list of generated (value, bytes) pairs as (its values, *envelope*
    plus their bytes)."""
    return st.lists(values).map(
        lambda pairs: ([v for v, _ in pairs], envelope + sum(n for _, n in pairs))
    )


#: (value, bytes) pairs, each strategy stating its own rule.
_LEAVES = st.one_of(
    st.none().map(lambda v: (v, 1)),
    st.booleans().map(lambda v: (v, 1)),
    st.integers().map(lambda v: (v, 8)),
    st.floats().map(lambda v: (v, 8)),
    st.text().map(lambda v: (v, len(v.encode("utf-8")))),
    st.sampled_from(Level).map(lambda v: (v, 8)),
    st.sampled_from(Colour).map(lambda v: (v, len(v.value))),
)
_NUMBER_SETS = st.sets(st.integers() | st.floats(allow_nan=False)).map(
    lambda v: (v, 8 + 8 * len(v))
)
_SIZED = st.recursive(
    _LEAVES | _NUMBER_SETS,
    lambda children: st.one_of(
        _sized(children, 8),
        _sized(children, 8).map(lambda p: (tuple(p[0]), p[1])),
        st.dictionaries(st.text(), children).map(lambda d: (
            {k: v for k, (v, _) in d.items()},
            8 + sum(len(k.encode("utf-8")) + n for k, (_, n) in d.items()),
        )),
        st.tuples(children, children).map(
            lambda pair: (Labelled(Point(1, 2.0), "", (pair[0][0], pair[1][0])),
                          16 + 32 + 0 + 8 + pair[0][1] + pair[1][1])
        ),
    ),
    max_leaves=20,
)


class TestSizingProperty:
    @given(_SIZED)
    def test_generated_values_size_as_the_rules_state(self, pair):
        value, expected = pair
        assert estimate_bytes(value) == expected


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
                from_node="node-00", to_node="node-01", at_time=0.5,
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

    def test_msm_channel_messages_size_as_envelope_plus_fields(
        self, monkeypatch
    ):
        # What the MRS and the media server send the storage manager
        # (admit's descriptor) and what comes back (the decision and
        # everything inside it): sized by their fields, never by the
        # dir() guess, which here would also count properties.
        import dataclasses as dc

        from repro.core.admission import (
            AdmissionDecision,
            RequestDescriptor,
            ServiceParameters,
            TransitionPlan,
        )
        from repro.core.symbols import BlockModel

        block = BlockModel(unit_rate=30.0, unit_size=8e4, granularity=3)
        params = ServiceParameters(alpha=0.03, beta=0.01, gamma=0.1, n=2)
        plan = TransitionPlan(k_old=1, k_new=4, steps=(2, 3, 4))
        examples = [
            block,
            RequestDescriptor(block=block, scattering_avg=0.01),
            params,
            plan,
            AdmissionDecision(request_id=0, params=params, k=4, transition=plan),
        ]

        def no_guess(value):
            raise AssertionError(f"{type(value).__name__} sized through dir()")

        monkeypatch.setattr(rpc, "dir", no_guess, raising=False)
        for example in examples:
            expected = 16 + sum(
                estimate_bytes(getattr(example, f.name))
                for f in dc.fields(example)
            )
            assert estimate_bytes(example) == expected > 16
        assert [estimate_bytes(e) for e in examples] == [
            16 + 3 * 8,
            16 + 40 + 8,
            16 + 4 * 8,
            16 + 8 + 8 + (8 + 3 * 8),
            16 + 8 + 48 + 8 + 64,
        ]

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


@pytest.mark.xfail(
    strict=True, reason="ROADMAP small debt: refused calls are not logged"
)
def test_a_refused_admit_is_logged_like_an_admitted_one():
    """The storage manager refuses an admit by raising; the channel logs
    the call only when the callee returns, so the refusal crossed the
    boundary with no record.  Logging it moves ``rpc.calls``,
    ``rpc.bytes`` and ``lifecycle_overload``'s ``sim_digest``: a by-design
    change of its own."""
    from repro.errors import AdmissionRejected
    from repro.rope import build_rope_server

    msm = build_rope_server().msm
    msm.revalidate_admission(heads_lost=1)
    channel = RpcChannel("mrs<->msm")
    descriptor = msm.descriptor_for_media(True)
    with pytest.raises(AdmissionRejected):
        channel.invoke(msm, "admit", descriptor, trace=None)
    assert channel.calls_by_method() == {"admit": 1}


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
