"""The real-time service layer: architecture simulators, round-robin
service, recording, sessions, and the MRS↔MSM RPC boundary."""

from repro.service.playback import (
    simulate_concurrent,
    simulate_pipelined,
    simulate_sequential,
)
from repro.service.besteffort import TextQueue, TextRequest
from repro.service.mixed_rounds import RecordStream
from repro.service.rounds import Admission, RoundRobinService, StreamState
from repro.service.rpc import RpcCall, RpcChannel, estimate_bytes, stub_for
# Not ``scan_order`` the function: it would shadow the submodule it is in.
from repro.service.scan_order import measured_capacity
from repro.service.session import (
    PlaybackSession,
    SessionResult,
    staged_k_schedule,
)
from repro.service.variable_speed import (
    VariableSpeedResult,
    simulate_variable_speed,
    transform_plan,
)

__all__ = [
    "Admission",
    "PlaybackSession",
    "RecordStream",
    "TextQueue",
    "TextRequest",
    "RoundRobinService",
    "RpcCall",
    "RpcChannel",
    "SessionResult",
    "StreamState",
    "VariableSpeedResult",
    "estimate_bytes",
    "measured_capacity",
    "simulate_concurrent",
    "simulate_pipelined",
    "simulate_sequential",
    "simulate_variable_speed",
    "staged_k_schedule",
    "stub_for",
    "transform_plan",
]
