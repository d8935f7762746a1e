"""The real-time service layer: round-robin service, single-request
studies, recording, sessions, and the MRS↔MSM RPC boundary."""

from repro.service.playback import (
    SequentialReads, play_single, task_switches, transform_plan,
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

__all__ = [
    "Admission",
    "PlaybackSession",
    "RecordStream",
    "TextQueue",
    "TextRequest",
    "RoundRobinService",
    "RpcCall",
    "RpcChannel",
    "SequentialReads",
    "SessionResult",
    "StreamState",
    "estimate_bytes",
    "measured_capacity",
    "play_single",
    "staged_k_schedule",
    "stub_for",
    "task_switches",
    "transform_plan",
]
