"""Single-request retrieval simulators for the three §3.1 architectures.

These replay a request's block-fetch sequence through the simulated drive
under sequential (Fig. 1), pipelined (Fig. 2), or concurrent (Fig. 3)
disk↔display organization, and score the resulting arrival times against
the playback deadlines.  They are the empirical side of experiment E1:
inside the analytic feasibility region of Eqs. (1)–(3) the simulators must
measure zero misses (the analysis is safe); outside it, sustained misses
appear.

Scoring convention: playback starts the moment the first block is ready
for display ("anti-jitter" read-ahead of further blocks can be layered on
by starting the clock later); block j's deadline is that start plus the
cumulative playback duration of blocks 0..j−1; a block is *ready* when its
transfer (and, for the sequential architecture, its display conversion)
completes.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Set, Tuple

from repro.disk.drive import SimulatedDrive
from repro.disk.raid import DriveArray
from repro.errors import HeadFailureError, ParameterError
from repro.faults.recovery import RecoveryPolicy, read_with_recovery
from repro.media.devices import DisplayDevice
from repro.obs.recorder import recorder_for
from repro.rope.server import BlockFetch
from repro.sim.metrics import ContinuityMetrics

__all__ = [
    "simulate_sequential",
    "simulate_pipelined",
    "simulate_concurrent",
]


def _deadlines(
    fetches: Sequence[BlockFetch], start: float
) -> List[float]:
    """Deadline of each block: start + cumulative prior playback time."""
    deadlines = []
    elapsed = start
    for fetch in fetches:
        deadlines.append(elapsed)
        elapsed += fetch.duration
    return deadlines


def _score(
    metrics: ContinuityMetrics,
    ready: Sequence[float],
    deadlines: Sequence[float],
    skipped: Set[int],
    rec=None,
) -> None:
    for index, (arrival, deadline) in enumerate(zip(ready, deadlines)):
        skip = index in skipped
        if skip:
            metrics.record_skip(arrival, deadline)
        else:
            metrics.record_delivery(arrival, deadline)
        if rec is not None:
            rec.block_scored(arrival, deadline, skip)


def _read_block(
    drive: SimulatedDrive,
    fetch: BlockFetch,
    time: float,
    recovery: RecoveryPolicy,
    rec=None,
) -> Tuple[float, bool]:
    """One fetch through the (possibly faulty) drive: (time, delivered).

    A head failure is terminal for a single-drive simulator; it is
    reported as an undelivered block and the drive keeps failing fast for
    the remainder of the run.
    """
    if drive.injector is None:
        return time + drive.read_slot(fetch.slot, fetch.bits), True
    try:
        elapsed, ok = read_with_recovery(
            drive, fetch.slot, fetch.bits, recovery, now=time, rec=rec
        )
    except HeadFailureError as fault:
        return time + fault.elapsed, False
    return time + elapsed, ok


def simulate_sequential(
    fetches: Sequence[BlockFetch],
    drive: SimulatedDrive,
    display: DisplayDevice,
    request_id: str = "seq",
    read_ahead: int = 0,
    recovery: Optional[RecoveryPolicy] = None,
    obs=None,
) -> Tuple[ContinuityMetrics, List[float]]:
    """Fig. 1: read a block, display it, read the next (Eq. 1 regime).

    Returns (metrics, ready-times).  *read_ahead* delays the playback
    clock start by that many block periods' worth of prefetched blocks
    (§3.3.2 anti-jitter delay).
    """
    if read_ahead < 0:
        raise ParameterError(f"read_ahead must be >= 0, got {read_ahead}")
    policy = recovery or RecoveryPolicy()
    rec = recorder_for(obs, "score")
    time = 0.0
    ready: List[float] = []
    skipped: Set[int] = set()
    for index, fetch in enumerate(fetches):
        if fetch.slot is not None:
            time, delivered = _read_block(drive, fetch, time, policy, rec)
            if delivered:
                time += display.display_time(fetch.bits)
            else:
                skipped.add(index)
        ready.append(time)
    anchor = min(read_ahead, len(ready) - 1) if ready else 0
    start = ready[anchor] if ready else 0.0
    deadlines = _deadlines(fetches, start)
    # Blocks consumed as read-ahead are ready by definition of the start.
    metrics = ContinuityMetrics(request_id=request_id)
    metrics.startup_latency = start
    _score(metrics, ready, deadlines, skipped, rec)
    return metrics, ready


def simulate_pipelined(
    fetches: Sequence[BlockFetch],
    drive: SimulatedDrive,
    request_id: str = "pipe",
    read_ahead: int = 0,
    recovery: Optional[RecoveryPolicy] = None,
    obs=None,
) -> Tuple[ContinuityMetrics, List[float]]:
    """Fig. 2: transfers overlap display; back-to-back reads (Eq. 2 regime).

    With two device buffers, a block is ready for display the moment its
    transfer completes; display conversion happens concurrently with the
    next transfer.
    """
    if read_ahead < 0:
        raise ParameterError(f"read_ahead must be >= 0, got {read_ahead}")
    policy = recovery or RecoveryPolicy()
    rec = recorder_for(obs, "score")
    time = 0.0
    ready: List[float] = []
    skipped: Set[int] = set()
    for index, fetch in enumerate(fetches):
        if fetch.slot is not None:
            time, delivered = _read_block(drive, fetch, time, policy, rec)
            if not delivered:
                skipped.add(index)
        ready.append(time)
    anchor = min(read_ahead, len(ready) - 1) if ready else 0
    start = ready[anchor] if ready else 0.0
    deadlines = _deadlines(fetches, start)
    metrics = ContinuityMetrics(request_id=request_id)
    metrics.startup_latency = start
    _score(metrics, ready, deadlines, skipped, rec)
    return metrics, ready


def simulate_concurrent(
    fetches: Sequence[BlockFetch],
    array: DriveArray,
    request_id: str = "conc",
    recovery: Optional[RecoveryPolicy] = None,
    on_head_failure: Optional[Callable[[HeadFailureError], None]] = None,
    obs=None,
) -> Tuple[ContinuityMetrics, List[float]]:
    """Fig. 3: p parallel accesses per batch (Eq. 3 regime).

    Consecutive blocks are striped over the array's members; each batch
    of p blocks is read concurrently and completes when its slowest
    member does.  Playback starts when the first batch lands (the p
    buffered blocks of §3.3.2).

    Fetches must carry slots addressed per member drive — i.e. block i's
    ``slot`` is a slot on drive ``i mod p``.  Silence fetches participate
    in the batch structure but cost no disk time.

    Under fault injection the batch degrades rather than aborts: a
    member whose head dies loses its share of every later stripe (each
    lost block a recorded skip), and *on_head_failure* fires once per
    dead member so the caller can revalidate admission against the
    surviving p.
    """
    p = array.heads
    policy = recovery or RecoveryPolicy()
    rec = recorder_for(obs, "score")
    time = 0.0
    ready: List[float] = []
    skipped: Set[int] = set()
    failed_members: Set[int] = set()
    index = 0
    while index < len(fetches):
        batch = fetches[index:index + p]
        durations = []
        for offset, fetch in enumerate(batch):
            if fetch.slot is None:
                continue
            member_index = (index + offset) % p
            member = array.member(member_index)
            if member.injector is None:
                durations.append(member.read_slot(fetch.slot, fetch.bits))
                continue
            try:
                elapsed, ok = read_with_recovery(
                    member, fetch.slot, fetch.bits, policy, now=time,
                    rec=rec,
                )
            except HeadFailureError as fault:
                durations.append(fault.elapsed)
                skipped.add(index + offset)
                if member_index not in failed_members:
                    failed_members.add(member_index)
                    if on_head_failure is not None:
                        on_head_failure(fault)
                continue
            durations.append(elapsed)
            if not ok:
                skipped.add(index + offset)
        batch_time = max(durations) if durations else 0.0
        time += batch_time
        ready.extend([time] * len(batch))
        index += p
    start = ready[min(p - 1, len(ready) - 1)] if ready else 0.0
    deadlines = _deadlines(fetches, start)
    metrics = ContinuityMetrics(request_id=request_id)
    metrics.startup_latency = start
    _score(metrics, ready, deadlines, skipped, rec)
    return metrics, ready
