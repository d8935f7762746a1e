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

from itertools import accumulate
from typing import Callable, List, Optional, Sequence, Set, Tuple

from repro.disk.drive import SimulatedDrive
from repro.disk.raid import DriveArray
from repro.errors import HeadFailureError, ParameterError
from repro.faults.recovery import RecoveryPolicy, read_with_recovery
from repro.media.devices import DisplayDevice
from repro.rope.server import BlockFetch, FetchColumns
from repro.sim.metrics import ContinuityMetrics

__all__ = [
    "simulate_sequential",
    "simulate_pipelined",
    "simulate_concurrent",
]


def _replay(
    fetches: Sequence[BlockFetch],
    members: Sequence[SimulatedDrive],
    read_ahead: int,
    request_id: str,
    recovery: Optional[RecoveryPolicy],
    display: Optional[DisplayDevice] = None,
    on_head_failure: Optional[Callable[[HeadFailureError], None]] = None,
) -> Tuple[ContinuityMetrics, List[float]]:
    """Replay *fetches* in stripes of ``p = len(members)`` and score them.

    Block i is read from member ``i mod p``; a stripe's reads run
    concurrently and it lands when its slowest member does (p = 1: one
    read after another).  With *display* each delivered block is then
    converted before the next read may start (Fig. 1).  The playback
    clock starts once *read_ahead* further blocks are on board behind the
    first.  A dead head costs its member every later block (a skip each);
    *on_head_failure* fires once per dead member.
    """
    if read_ahead < 0:
        raise ParameterError(f"read_ahead must be >= 0, got {read_ahead}")
    p = len(members)
    policy = recovery or RecoveryPolicy()
    time = 0.0
    ready: List[float] = []
    skipped: Set[int] = set()
    failed_members: Set[int] = set()
    for base in range(0, len(fetches), p):
        stripe = fetches[base:base + p]
        durations = []
        converting = 0.0
        for index, fetch in enumerate(stripe, base):
            if fetch.slot is None:
                continue
            try:
                elapsed, ok = read_with_recovery(
                    members[index % p], fetch.slot, fetch.bits, policy,
                    now=time,
                )
            except HeadFailureError as fault:
                elapsed, ok = fault.elapsed, False
                if index % p not in failed_members:
                    failed_members.add(index % p)
                    if on_head_failure is not None:
                        on_head_failure(fault)
            durations.append(elapsed)
            if not ok:
                skipped.add(index)
            elif display is not None:
                converting += display.display_time(fetch.bits)
        time += max(durations) if durations else 0.0
        time += converting
        ready.extend([time] * len(stripe))
    start = ready[min(read_ahead, len(ready) - 1)] if ready else 0.0
    metrics = ContinuityMetrics(request_id=request_id, startup_latency=start)
    durations = FetchColumns.of(fetches).durations
    metrics.score(
        ready, accumulate(durations, initial=start), durations, start,
        skipped, high_water_from=len(ready),   # no buffer model here
    )
    return metrics, ready


def simulate_sequential(
    fetches: Sequence[BlockFetch],
    drive: SimulatedDrive,
    display: DisplayDevice,
    request_id: str = "seq",
    read_ahead: int = 0,
    recovery: Optional[RecoveryPolicy] = None,
) -> Tuple[ContinuityMetrics, List[float]]:
    """Fig. 1: read a block, display it, read the next (Eq. 1 regime).

    Returns (metrics, ready-times).  *read_ahead* delays the playback
    clock start by that many block periods' worth of prefetched blocks
    (§3.3.2 anti-jitter delay); blocks consumed as read-ahead are ready
    by definition of the start.
    """
    return _replay(fetches, [drive], read_ahead, request_id, recovery, display)


def simulate_pipelined(
    fetches: Sequence[BlockFetch],
    drive: SimulatedDrive,
    request_id: str = "pipe",
    read_ahead: int = 0,
    recovery: Optional[RecoveryPolicy] = None,
) -> Tuple[ContinuityMetrics, List[float]]:
    """Fig. 2: transfers overlap display; back-to-back reads (Eq. 2 regime).

    With two device buffers, a block is ready for display the moment its
    transfer completes; display conversion happens concurrently with the
    next transfer.
    """
    return _replay(fetches, [drive], read_ahead, request_id, recovery)


def simulate_concurrent(
    fetches: Sequence[BlockFetch],
    array: DriveArray,
    request_id: str = "conc",
    recovery: Optional[RecoveryPolicy] = None,
    on_head_failure: Optional[Callable[[HeadFailureError], None]] = None,
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
    members = [array.member(index) for index in range(array.heads)]
    return _replay(
        fetches, members, array.heads - 1, request_id, recovery,
        on_head_failure=on_head_failure,
    )
