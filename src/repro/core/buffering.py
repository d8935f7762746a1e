"""Buffering and read-ahead requirements (§3.3.2).

Two continuity regimes appear in the paper:

* **Strict continuity** — every block individually meets its deadline.
  Buffer needs are 1 (sequential), 2 (pipelined), p (concurrent): the
  k = 1 case of :func:`buffers_for_average_continuity`.
* **Average continuity over k blocks** — scheduling and seek-time jitter is
  absorbed by an *anti-jitter delay* (read-ahead) at the start of each
  request.  Guaranteeing that the next group of k blocks arrives within
  the playback time of the previous group requires a read-ahead of k
  blocks (sequential, pipelined) or p·k blocks (concurrent, k per head);
  buffer counts are k, 2k, and p·k respectively (pipelined doubles because
  one set of k is displayed while the other set of k is filled).

§3.3.2 also covers the variable-rate playback functions:

* **Fast-forward without skipping** multiplies the consumption rate by the
  speedup, inflating both the continuity requirement and buffering.
* **Fast-forward with skipping** raises only the continuity requirement.
* **Slow motion** over-satisfies continuity; blocks accumulate in buffers,
  so the disk hands the surplus bandwidth to other tasks once buffers
  fill.  Before switching away, it must read ahead ``h`` extra blocks to
  cover the worst-case ``l_seek_max`` re-positioning delay when it
  resumes:  ``h = ⌈l_seek_max · R_blk⌉`` where ``R_blk`` is the block
  playback rate (formula reconstructed; see DESIGN.md §1).
"""

from __future__ import annotations

import math

from repro.core.continuity import Architecture
from repro.core.symbols import BlockModel, DiskParameters
from repro.errors import ParameterError

__all__ = [
    "read_ahead_required",
    "buffers_for_average_continuity",
    "task_switch_read_ahead",
    "fast_forward_block",
    "slow_motion_accumulation_rate",
]


def _validate(k: int, p: int) -> None:
    if k < 1:
        raise ParameterError(f"averaging window k must be >= 1, got {k}")
    if p < 1:
        raise ParameterError(f"concurrency p must be >= 1, got {p}")


def read_ahead_required(architecture: Architecture, k: int, p: int = 1) -> int:
    """Anti-jitter read-ahead for average continuity over k blocks.

    Sequential and pipelined architectures need k blocks; the concurrent
    architecture needs k per head, p·k in total.
    """
    _validate(k, p)
    if architecture is Architecture.CONCURRENT:
        return p * k
    if architecture in (Architecture.SEQUENTIAL, Architecture.PIPELINED):
        return k
    raise ParameterError(f"unknown architecture: {architecture!r}")


def buffers_for_average_continuity(
    architecture: Architecture, k: int, p: int = 1
) -> int:
    """Buffer count for average continuity over k blocks (§3.3.2).

    Sequential: k.  Concurrent: p·k.  Pipelined: 2k — "one set of k buffers
    to hold the blocks being displayed, and another set of k buffers to
    hold the blocks being transferred from the disk, both of which occur
    simultaneously."
    """
    _validate(k, p)
    if architecture is Architecture.SEQUENTIAL:
        return k
    if architecture is Architecture.PIPELINED:
        return 2 * k
    if architecture is Architecture.CONCURRENT:
        return p * k
    raise ParameterError(f"unknown architecture: {architecture!r}")


def task_switch_read_ahead(block: BlockModel, disk: DiskParameters) -> int:
    """Blocks (h) to prefetch before the disk switches to another task.

    After the switch "the disk head may have moved to a random location,
    and hence may have to incur maximum seek (and latency) time" before
    resuming; the display must not starve during that window, so
    ``h = ⌈l_seek_max · R_blk⌉`` blocks are read ahead, where ``R_blk`` is
    the block playback rate.
    """
    return math.ceil(disk.seek_max * block.blocks_per_second)


def fast_forward_block(
    block: BlockModel, speedup: float, skipping: bool
) -> BlockModel:
    """Effective block model during fast-forward playback (§3.3.2).

    Fast-forwarding at *speedup* × normal rate shrinks the playback budget
    per block by that factor, which we model by scaling the unit rate.

    * Without skipping, every block is still fetched, so both continuity
      and buffering demands grow — the returned model's higher rate feeds
      straight into the continuity equations and buffer plans.
    * With skipping, only one block in ⌈speedup⌉ is fetched, so the
      *fetched* blocks still arrive at (approximately) the normal block
      rate; the continuity requirement tightens only through the scheduling
      of which blocks to fetch.  We model this by scaling the rate up and
      the effective fetch count down, which cancels at the block level —
      the returned model keeps the original rate but callers should treat
      skipped playback as consuming 1/⌈speedup⌉ of the blocks.

    Returns a new :class:`BlockModel`; the original is unchanged.
    """
    if speedup <= 0:
        raise ParameterError(f"speedup must be positive, got {speedup}")
    if skipping:
        stride = max(1, math.ceil(speedup))
        effective_rate = block.unit_rate * speedup / stride
    else:
        effective_rate = block.unit_rate * speedup
    return BlockModel(effective_rate, block.unit_size, block.granularity)


def slow_motion_accumulation_rate(
    block: BlockModel,
    disk: DiskParameters,
    scattering: float,
    slowdown: float,
) -> float:
    """Net buffer fill rate (blocks/s) during slow-motion playback.

    At 1/slowdown × normal speed the display consumes
    ``R_blk / slowdown`` blocks/s while the disk can still deliver
    ``1 / read_time`` blocks/s; the difference accumulates in buffers
    (§3.3.2: "retrieval of media blocks proceeds faster than their
    display, leading to accumulation").  A non-positive result means no
    accumulation (the disk was the bottleneck already).
    """
    if slowdown < 1.0:
        raise ParameterError(
            f"slowdown must be >= 1 (use fast_forward_block for speedups), "
            f"got {slowdown}"
        )
    delivery = 1.0 / block.read_time(disk, scattering)
    consumption = block.blocks_per_second / slowdown
    return delivery - consumption
