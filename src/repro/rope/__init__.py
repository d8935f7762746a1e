"""The Multimedia Rope Server (MRS): ropes, editing, seam repair (§4, §5.2).

A rope ties strands of different media together with synchronization
information; all editing is copy-free pointer manipulation over immutable
strands, with the §4.2 repair algorithm bounding the copying needed to
keep edited ropes continuously playable.
"""

from repro.rope.editor import EditingSession, LogEntry
from repro.rope.intervals import (
    MediaTrack,
    Segment,
    Trigger,
    delete_range,
    slice_segments,
    splice_segments,
    total_duration,
)
from repro.rope.operations import (
    concate,
    delete,
    insert,
    project_medium,
    replace,
    strip_medium,
    substring,
)
from repro.rope.scattering_repair import (
    RepairReport,
    ScatteringRepairer,
    SeamCheck,
)
from repro.rope.server import (
    BlockFetch,
    FetchColumns,
    MultimediaRopeServer,
    PlaybackPlan,
    Request,
    RequestKind,
    RequestState,
    build_rope_server,
)
from repro.rope.structures import Media, MultimediaRope
from repro.rope.triggers import attach_trigger, trigger_schedule

__all__ = [
    "BlockFetch",
    "FetchColumns",
    "EditingSession",
    "LogEntry",
    "Media",
    "MediaTrack",
    "MultimediaRope",
    "MultimediaRopeServer",
    "PlaybackPlan",
    "RepairReport",
    "Request",
    "RequestKind",
    "RequestState",
    "ScatteringRepairer",
    "SeamCheck",
    "Segment",
    "Trigger",
    "attach_trigger",
    "build_rope_server",
    "concate",
    "delete",
    "delete_range",
    "insert",
    "project_medium",
    "replace",
    "slice_segments",
    "splice_segments",
    "strip_medium",
    "substring",
    "total_duration",
    "trigger_schedule",
]
