"""One request alone on the round loop: §3.1's architectures, trick play.

:func:`play_single` runs a plan as the one stream of the §3.4 loop, on
the drive that makes its architecture: the drive itself for Fig. 2,
:class:`SequentialReads` for Fig. 1, a
:class:`~repro.disk.raid.DriveArray` for Fig. 3 (E1).  Trick play (E16)
is :func:`transform_plan`'s plan with a small buffer at k = 1: the disk
switches "to some other task" when it is full — the loop's own sleep.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Optional, Sequence, Tuple

from repro.core.symbols import DisplayDeviceParameters
from repro.disk.raid import DriveArray, StripedReads
from repro.errors import ParameterError, check_count
from repro.faults.recovery import RecoveryPolicy
from repro.rope.server import BlockFetch, FetchColumns
from repro.service.rounds import RoundRobinService, StreamState

__all__ = ["SequentialReads", "play_single", "task_switches", "transform_plan"]


class SequentialReads:
    """Fig. 1's drive: each read is followed by the block's display
    conversion, ``bits / R_vd`` (§2; None bits: a whole block), before
    the next may start."""

    def __init__(self, drive, display: DisplayDeviceParameters):
        self.drive, self.display_rate = drive, display.display_rate
        self.stats = drive.stats

    @property
    def injector(self):
        """The drive's fault injector."""
        return self.drive.injector

    def read_slot(self, slot: int, bits: Optional[float] = None) -> float:
        shown = self.drive.block_bits if bits is None else bits
        return self.drive.read_slot(slot, bits) + shown / self.display_rate


def play_single(
    fetches: Sequence[BlockFetch],
    drive,
    read_ahead: int = 0,
    buffer_capacity: Optional[int] = None,
    recovery: Optional[RecoveryPolicy] = None,
) -> StreamState:
    """Play *fetches* alone on the round loop; returns the served stream.

    Each turn reads ``k = read_ahead + 1`` blocks into a buffer of
    *buffer_capacity* (None: the plan's length, so reads run back to
    back).  On a :class:`~repro.disk.raid.DriveArray`, fetch i is read
    from member ``i mod p``."""
    check_count("read_ahead", read_ahead, 0)
    plan = FetchColumns.of(fetches)
    if isinstance(drive, DriveArray):
        drive = StripedReads(drive, plan.slots, plan.bits)
        indexes = [None if s is None else i for i, s in enumerate(plan.slots)]
        plan = FetchColumns(indexes, plan.bits, plan.durations)
    blocks = len(plan)
    if buffer_capacity is None:
        buffer_capacity = max(blocks, 1)
    stream = StreamState("play", plan, buffer_capacity)
    # Every round reads a block or sleeps until the next one has room.
    RoundRobinService(drive, lambda _round, _n: read_ahead + 1, recovery).run(
        [stream], max_rounds=2 * blocks + 1
    )
    return stream


def transform_plan(
    fetches: Sequence[BlockFetch],
    speed: float,
    skipping: bool = False,
) -> FetchColumns:
    """Rewrite a normal-speed fetch plan for playback at *speed*×.

    * ``speed > 1`` fast-forward: every duration shrinks by the factor.
      With *skipping*, only every ``⌈speed⌉``-th block is fetched, each
      shown for its un-skipped wall-clock share (the paper's
      "fast-forwarding with skipping").
    * ``speed < 1`` slow motion: durations stretch by 1/speed.
    """
    if isinstance(speed, bool) or not isinstance(speed, (int, float)) or not (
        0 < speed < math.inf
    ):
        raise ParameterError(f"speed must be a finite real > 0, got {speed!r}")
    if skipping and speed <= 1.0:
        raise ParameterError("skipping only applies to fast-forward")
    # Each kept block covers `stride` blocks of media in stride/speed of
    # wall-clock time (stride 1: every block kept, duration / speed).
    stride = math.ceil(speed) if skipping else 1
    kept = FetchColumns.of(fetches)[::stride]
    kept.durations = [d * stride / speed for d in kept.durations]
    return kept


def task_switches(stream: StreamState) -> Tuple[int, float]:
    """The loop's sleeps in a served stream: ``(count, idle seconds)``.
    A turn that fills the buffer while the next block is still playing
    sleeps until its play-out frees a slot; alone, the disk idles."""
    ends, capacity = stream.ends, stream.buffer_capacity
    switches, idle = 0, 0.0
    for index, landed in enumerate(stream.ready[:-1]):
        played = bisect_right(ends, landed)
        if index + 1 - played == capacity:
            switches += 1
            idle += ends[played] - landed
    return switches, idle
