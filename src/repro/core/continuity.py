"""Continuity requirements for the three retrieval architectures (§3.1).

For continuous retrieval, "media information [must] be available at the
display device at or before the time of its playback".  The paper derives
one inequality per architecture:

* **Sequential** (Fig. 1, Eq. 1): read and display strictly alternate, so
  read time plus display time must fit within one block's playback
  duration::

      l_ds + η_vs·s_vf/R_dr + η_vs·s_vf/R_vd  ≤  η_vs/R_vr

* **Pipelined** (Fig. 2, Eq. 2): with two device buffers, reads overlap
  display, so only the read must fit::

      l_ds + η_vs·s_vf/R_dr  ≤  η_vs/R_vr

* **Concurrent** (Fig. 3, Eq. 3): with p parallel disk accesses and p
  device buffers, a read may take as long as the playback of (p−1)
  blocks::

      l_ds + η_vs·s_vf/R_dr  ≤  (p−1)·η_vs/R_vr

§3.3.3 extends the analysis to one audio + one video stream (Eqs. 4–6):
with homogeneous blocks and audio blocks lasting n video-block durations,
an audio block is retrieved once per n video blocks; with heterogeneous
blocks (or zero audio↔video gap) the two transfers merge.  The OCR of
Eqs. (4)–(6) is garbled in our source; the forms implemented here are
reconstructed from the prose limits the paper states (see DESIGN.md §1).

Every function below returns *slack* — budget minus demand, in seconds per
block period — so callers can rank configurations by margin; feasibility is
``slack >= 0``.  The inverse problems (largest feasible scattering, smallest
feasible concurrency) are solved in closed form.
"""

from __future__ import annotations

import enum
import math

from repro.core.symbols import BlockModel, DiskParameters, DisplayDeviceParameters
from repro.errors import InfeasibleError, ParameterError

__all__ = [
    "Architecture",
    "sequential_slack",
    "pipelined_slack",
    "concurrent_slack",
    "slack",
    "is_continuous",
    "max_scattering",
    "min_concurrency",
    "min_granularity",
    "mixed_homogeneous_slack",
    "mixed_heterogeneous_slack",
    "max_scattering_mixed",
    "effective_throughput",
]


class Architecture(enum.Enum):
    """Disk-to-display transfer architecture (§3.1, Figs. 1–3)."""

    SEQUENTIAL = "sequential"
    PIPELINED = "pipelined"
    CONCURRENT = "concurrent"


def _validate_concurrency(p: int) -> None:
    if p < 1:
        raise ParameterError(f"concurrency p must be >= 1, got {p}")


# ---------------------------------------------------------------------------
# Eqs. (1)–(3): single-medium slack per architecture
# ---------------------------------------------------------------------------

def sequential_slack(
    block: BlockModel,
    disk: DiskParameters,
    device: DisplayDeviceParameters,
    scattering: float,
) -> float:
    """Eq. (1) slack: ``η/R − (l_ds + η·s/R_dr + η·s/R_vd)``."""
    demand = block.read_time(disk, scattering) + block.display_time(device)
    return block.playback_duration - demand


def pipelined_slack(
    block: BlockModel,
    disk: DiskParameters,
    scattering: float,
) -> float:
    """Eq. (2) slack: ``η/R − (l_ds + η·s/R_dr)``."""
    return block.playback_duration - block.read_time(disk, scattering)


def concurrent_slack(
    block: BlockModel,
    disk: DiskParameters,
    scattering: float,
    p: int,
) -> float:
    """Eq. (3) slack: ``(p−1)·η/R − (l_ds + η·s/R_dr)``.

    With p = 1 the architecture degenerates: a single head with "concurrent"
    buffering has no playback overlap at all, so the budget is zero and the
    configuration is never feasible for positive access times — callers
    should use the pipelined or sequential model instead.
    """
    _validate_concurrency(p)
    budget = (p - 1) * block.playback_duration
    return budget - block.read_time(disk, scattering)


def slack(
    architecture: Architecture,
    block: BlockModel,
    disk: DiskParameters,
    device: DisplayDeviceParameters,
    scattering: float,
    p: int = 1,
) -> float:
    """Dispatch to the architecture's continuity slack (Eqs. 1–3)."""
    if architecture is Architecture.SEQUENTIAL:
        return sequential_slack(block, disk, device, scattering)
    if architecture is Architecture.PIPELINED:
        return pipelined_slack(block, disk, scattering)
    if architecture is Architecture.CONCURRENT:
        return concurrent_slack(block, disk, scattering, p)
    raise ParameterError(f"unknown architecture: {architecture!r}")


def is_continuous(
    architecture: Architecture,
    block: BlockModel,
    disk: DiskParameters,
    device: DisplayDeviceParameters,
    scattering: float,
    p: int = 1,
) -> bool:
    """True when the continuity requirement holds for this configuration."""
    return slack(architecture, block, disk, device, scattering, p) >= 0.0


# ---------------------------------------------------------------------------
# Inverse problems (§3.3.4): solve each equation for one unknown
# ---------------------------------------------------------------------------

def max_scattering(
    architecture: Architecture,
    block: BlockModel,
    disk: DiskParameters,
    device: DisplayDeviceParameters,
    p: int = 1,
) -> float:
    """Upper bound on the scattering parameter ``l_ds`` (§3.3.4).

    Obtained "by direct substitution in the continuity equations" — setting
    slack to zero and solving for ``l_ds``.

    Raises
    ------
    InfeasibleError
        If even contiguous placement (``l_ds = 0``) cannot satisfy the
        continuity requirement, i.e. the disk/device simply cannot keep up
        with the recording rate at this granularity and architecture.
    """
    bound = slack(architecture, block, disk, device, 0.0, p)
    if bound < 0.0:
        raise InfeasibleError(
            f"{architecture.value} retrieval infeasible even at l_ds=0: "
            f"deficit {-bound:.6f} s per block "
            f"(block={block.block_bits:.0f} bits, "
            f"playback={block.playback_duration:.6f} s)"
        )
    return bound


def min_concurrency(
    block: BlockModel,
    disk: DiskParameters,
    scattering: float,
) -> int:
    """Smallest p for which the concurrent architecture (Eq. 3) is feasible.

    Solving ``l_ds + η·s/R_dr ≤ (p−1)·η/R`` for p gives
    ``p ≥ 1 + read_time/playback_duration``.
    """
    read = block.read_time(disk, scattering)
    return 1 + math.ceil(read / block.playback_duration)


def min_granularity(
    architecture: Architecture,
    block: BlockModel,
    disk: DiskParameters,
    device: DisplayDeviceParameters,
    scattering: float,
    p: int = 1,
    granularity_limit: int = 1 << 20,
) -> int:
    """Smallest granularity η for which continuity holds at *scattering*.

    Growing a block amortizes the fixed per-block gap ``l_ds`` over more
    playback time.  All three inequalities are linear in η, e.g. pipelined::

        l_ds + η·s/R_dr ≤ η/R   ⇔   η ≥ l_ds / (1/R − s/R_dr)

    Raises
    ------
    InfeasibleError
        If the per-unit budget (``1/R`` minus per-unit transfer and display
        time) is non-positive, so no granularity helps.
    """
    per_unit_budget = block.playback_duration / block.granularity
    if architecture is Architecture.CONCURRENT:
        _validate_concurrency(p)
        per_unit_budget *= (p - 1)
    per_unit_cost = block.unit_size / disk.transfer_rate
    if architecture is Architecture.SEQUENTIAL:
        per_unit_cost += block.unit_size / device.display_rate
    headroom = per_unit_budget - per_unit_cost
    if headroom <= 0.0:
        raise InfeasibleError(
            f"{architecture.value} retrieval infeasible at any granularity: "
            f"per-unit budget {per_unit_budget:.9f} s <= "
            f"per-unit cost {per_unit_cost:.9f} s"
        )
    eta = max(1, math.ceil(scattering / headroom))
    if eta > granularity_limit:
        raise InfeasibleError(
            f"granularity {eta} exceeds limit {granularity_limit}"
        )
    return eta


# ---------------------------------------------------------------------------
# §3.3.3: mixed audio + video continuity (Eqs. 4–6, reconstructed)
# ---------------------------------------------------------------------------

def mixed_homogeneous_slack(
    video: BlockModel,
    audio: BlockModel,
    disk: DiskParameters,
    scattering: float,
) -> float:
    """Eqs. (4)/(5) slack: homogeneous blocks, pipelined retrieval.

    Let the audio block's playback duration be n video-block durations;
    "an audio block is retrieved from disk for every n video blocks", so
    over one audio period the disk performs n video reads and 1 audio read::

        n·(l_ds + η_vs·s_vf/R_dr) + l_ds + η_as·s_as/R_dr ≤ n·η_vs/R_vr

    n is derived from the two block models and need not be an integer; the
    inequality is evaluated over one audio-block period either way.  With
    n = 1 this reduces to the paper's Eq. (5)::

        2·l_ds + (η_vs·s_vf + η_as·s_as)/R_dr ≤ η_vs/R_vr
    """
    n = audio.playback_duration / video.playback_duration
    demand = (
        n * video.read_time(disk, scattering)
        + audio.read_time(disk, scattering)
    )
    budget = n * video.playback_duration
    return budget - demand


def mixed_heterogeneous_slack(
    video: BlockModel,
    audio: BlockModel,
    disk: DiskParameters,
    scattering: float,
) -> float:
    """Eq. (6) slack: heterogeneous blocks (or zero audio↔video gap).

    Audio and video data for the same period share one block (or are laid
    out with zero gap), so there is a single positioning delay per period::

        l_ds + (η_vs·s_vf + η_as·s_as)/R_dr ≤ η_vs/R_vr

    Evaluated over one video-block period, with the audio payload scaled to
    the amount that plays back in that period.
    """
    audio_bits_per_video_block = audio.unit_rate * audio.unit_size * (
        video.playback_duration
    )
    combined_bits = video.block_bits + audio_bits_per_video_block
    demand = disk.access_time(combined_bits, scattering)
    return video.playback_duration - demand


def max_scattering_mixed(
    video: BlockModel,
    audio: BlockModel,
    disk: DiskParameters,
    heterogeneous: bool,
) -> float:
    """Largest ``l_ds`` satisfying the mixed-media continuity requirement.

    For homogeneous blocks the gap is paid (n+1) times per audio period, so
    the zero-scattering slack is divided across those gaps; for
    heterogeneous blocks it is paid once per video block.
    """
    if heterogeneous:
        bound = mixed_heterogeneous_slack(video, audio, disk, 0.0)
        gaps = 1.0
    else:
        bound = mixed_homogeneous_slack(video, audio, disk, 0.0)
        gaps = audio.playback_duration / video.playback_duration + 1.0
    if bound < 0.0:
        kind = "heterogeneous" if heterogeneous else "homogeneous"
        raise InfeasibleError(
            f"mixed-media ({kind} blocks) retrieval infeasible even at "
            f"l_ds=0: deficit {-bound:.6f} s"
        )
    return bound / gaps


# ---------------------------------------------------------------------------
# Aggregate throughput
# ---------------------------------------------------------------------------

def effective_throughput(
    block_bits: float,
    disk: DiskParameters,
    gap: float,
) -> float:
    """Aggregate sustained transfer rate with per-block positioning gaps.

    This is the arithmetic behind the paper's HDTV example: each of the
    disk's p heads delivers ``block_bits`` every ``gap + block/R_dr``
    seconds, so a 100-head array with ~10 ms access and 4 KByte blocks
    sustains ≈0.32 Gbit/s regardless of its streaming rate.
    """
    per_head = block_bits / disk.access_time(block_bits, gap)
    return disk.heads * per_head
