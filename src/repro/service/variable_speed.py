"""Variable-speed playback: fast-forward and slow motion (§3.3.2).

"Functions such as fast-forwarding can be supported by satisfying
continuity requirements at the fastest required display rate.  Whereas
fast-forwarding without skipping frames increases both continuity and
buffering requirements, fast-forwarding with skipping increases only the
continuity requirement.  However, when blocks are displayed slower than
the fastest rate ..., retrieval of media blocks proceeds faster than
their display, leading to accumulation of media blocks in buffers.  In
order to prevent unbounded accumulation, the disk can switch to some
other task after all the buffers allocated to the retrieval of a media
strand are filled, and switch back when sufficient buffers become empty"
— reading ahead h extra blocks before each switch to survive the
worst-case re-positioning seek.

:func:`transform_plan` rewrites a fetch sequence for a given speed
(dropping blocks for skipped fast-forward, stretching durations for slow
motion); :func:`simulate_variable_speed` replays the transformed plan
with a bounded buffer and the switch/read-ahead protocol, reporting both
continuity and the buffer/task-switch behaviour the paper predicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import List, Optional, Sequence

from repro.disk.drive import SimulatedDrive
from repro.errors import ParameterError
from repro.rope.server import BlockFetch, FetchColumns
from repro.sim.metrics import ContinuityMetrics, consumed_prefix

__all__ = [
    "VariableSpeedResult",
    "transform_plan",
    "simulate_variable_speed",
]


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
    if speed <= 0:
        raise ParameterError(f"speed must be positive, got {speed}")
    if skipping and speed <= 1.0:
        raise ParameterError("skipping only applies to fast-forward")
    # Each kept block covers `stride` blocks of media in stride/speed of
    # wall-clock time (stride 1: every block kept, duration / speed).
    stride = math.ceil(speed) if skipping else 1
    kept = FetchColumns.of(fetches)[::stride]
    kept.durations = [d * stride / speed for d in kept.durations]
    return kept


@dataclass(frozen=True)
class VariableSpeedResult:
    """Outcome of a variable-speed playback simulation."""

    metrics: ContinuityMetrics
    task_switches: int
    switch_idle_time: float

    @property
    def continuous(self) -> bool:
        """True when every displayed block met its deadline."""
        return self.metrics.continuous

    @property
    def buffer_high_water(self) -> int:
        """Most blocks ever buffered at once."""
        return self.metrics.buffer_high_water


def simulate_variable_speed(
    fetches: Sequence[BlockFetch],
    drive: SimulatedDrive,
    speed: float,
    buffer_capacity: int,
    skipping: bool = False,
    switch_penalty: Optional[float] = None,
    request_id: str = "varspeed",
) -> VariableSpeedResult:
    """Replay a plan at *speed*× with bounded buffering and task switches.

    Pipelined transfer model: the disk reads ahead as long as buffer
    space remains; when the buffer fills it "switches to another task"
    and returns only when half the buffers have drained, paying
    *switch_penalty* (default: the drive's worst-case re-positioning
    time) before the next read — the behaviour §3.3.2 prescribes, with
    the h-block read-ahead realized by the full buffer it leaves behind.
    """
    if buffer_capacity < 1:
        raise ParameterError(
            f"buffer_capacity must be >= 1, got {buffer_capacity}"
        )
    plan = transform_plan(fetches, speed, skipping)
    durations = plan.durations
    if switch_penalty is None:
        switch_penalty = drive.parameters().seek_max
    metrics = ContinuityMetrics(request_id=request_id)
    ready: List[float] = []
    time = 0.0
    clock_start: Optional[float] = None
    switches = 0
    idle = 0.0
    away = False

    for index, slot in enumerate(plan.slots):
        # Buffer regulation with the task-switch protocol (nothing has
        # landed, so nothing is consumed, until the clock starts).
        consumed = consumed_prefix(ready, durations, clock_start, time)[0]
        if len(ready) - consumed >= buffer_capacity:
            switches += 1
            away = True
            # Wait until half the buffers drain (at least one block).
            need = max(len(ready) - buffer_capacity // 2, consumed + 1)
            wake = consumed_prefix(
                ready[:need], durations, clock_start, math.inf
            )[1]
            idle += max(0.0, wake - time)
            time = max(time, wake)
        if slot is not None:
            penalty = switch_penalty if away else 0.0
            away = False
            time += penalty + drive.read_slot(slot, plan.bits[index])
        ready.append(time)
        if clock_start is None:
            clock_start = time
    # Trick play buffers from the first block on: high-water counts all.
    metrics.score(
        ready, accumulate(durations, initial=clock_start), durations,
        clock_start,
    )
    return VariableSpeedResult(
        metrics=metrics,
        task_switches=switches,
        switch_idle_time=idle,
    )
