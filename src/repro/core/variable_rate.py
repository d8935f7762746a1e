"""Variable-rate compression extension (§6.2 future work).

"variable rate compression of video (analogous to silence elimination in
audio), such as differencing between frames, can result in varying but
smaller sizes of video frames, thereby yielding better bounds for
granularity and scattering.  We are extending the continuity equations to
incorporate such effects of compression algorithms."

This module carries out that extension for the pipelined architecture.
With per-frame sizes varying (key frames large, difference frames small),
a block of η frames has a size anywhere in
``[min_block_bits, max_block_bits]``.  Two regimes follow:

* **Strict continuity** — every block individually meets its deadline, so
  the bound must budget for the *largest possible block*::

      l_ds ≤ η/R − max_block_bits/R_dr

* **Average continuity over one size group** — with a read-ahead of one
  group (the §3.3.2 anti-jitter mechanism), only the *group's mean* block
  size must stream in real time::

      l_ds ≤ η/R − mean_block_bits/R_dr

The §6.2 claim is quantified by :func:`vbr_gain`: the averaged
variable-rate bound strictly dominates the constant-rate bound whenever
the codec's mean frame is smaller than its nominal (key-frame) size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from repro.core.symbols import DiskParameters, VideoStream
from repro.errors import InfeasibleError, ParameterError
from repro.media.codec import Codec

__all__ = [
    "BlockSizeProfile",
    "block_size_profile",
    "strict_scattering_bound",
    "average_scattering_bound",
    "VbrComparison",
    "vbr_gain",
    "group_read_ahead",
]


@dataclass(frozen=True)
class BlockSizeProfile:
    """Block-size statistics of a variable-rate stream at granularity η.

    Attributes
    ----------
    granularity:
        Frames per block.
    min_bits / mean_bits / max_bits:
        Smallest, long-run average, and largest possible block size over
        the codec's size group.
    group_blocks:
        Blocks per codec size group (the periodicity of the size
        pattern) — the averaging window for the relaxed bound.
    """

    granularity: int
    min_bits: float
    mean_bits: float
    max_bits: float
    group_blocks: int

    def __post_init__(self) -> None:
        if not self.min_bits <= self.mean_bits <= self.max_bits:
            raise ParameterError(
                f"inconsistent size profile: min {self.min_bits}, "
                f"mean {self.mean_bits}, max {self.max_bits}"
            )
        if self.granularity < 1 or self.group_blocks < 1:
            raise ParameterError("granularity and group_blocks must be >= 1")


def block_size_profile(
    stream: VideoStream, codec: Codec, granularity: int
) -> BlockSizeProfile:
    """Measure a codec's block-size statistics at granularity η.

    The codec is sampled over one full size group (compression patterns
    are periodic in the frame index), packed into η-frame blocks exactly
    as the storage manager packs them.
    """
    if granularity < 1:
        raise ParameterError(f"granularity must be >= 1, got {granularity}")
    raw = stream.frame_size * codec.nominal_ratio
    group_frames = getattr(codec, "group_size", 1)
    # Cover a whole number of blocks AND a whole number of size groups.
    span = _lcm(granularity, group_frames)
    frame_bits = codec.compressed_sizes(raw, span)
    block_bits: List[float] = [
        sum(frame_bits[start:start + granularity])
        for start in range(0, span, granularity)
    ]
    return BlockSizeProfile(
        granularity=granularity,
        min_bits=min(block_bits),
        mean_bits=sum(block_bits) / len(block_bits),
        max_bits=max(block_bits),
        group_blocks=len(block_bits),
    )


def _lcm(a: int, b: int) -> int:
    return a * b // math.gcd(a, b)


def _bound(
    stream: VideoStream,
    granularity: int,
    block_bits: float,
    disk: DiskParameters,
    label: str,
) -> float:
    playback = granularity / stream.frame_rate
    bound = playback - block_bits / disk.transfer_rate
    if bound < 0:
        raise InfeasibleError(
            f"{label} bound infeasible: block of {block_bits:.0f} bits "
            f"cannot stream within {playback:.6f} s"
        )
    return bound


def strict_scattering_bound(
    stream: VideoStream,
    profile: BlockSizeProfile,
    disk: DiskParameters,
) -> float:
    """Pipelined scattering bound under strict per-block continuity.

    Budgets every block as if it were the largest the codec can emit.
    """
    return _bound(
        stream, profile.granularity, profile.max_bits, disk, "strict VBR"
    )


def average_scattering_bound(
    stream: VideoStream,
    profile: BlockSizeProfile,
    disk: DiskParameters,
) -> float:
    """Pipelined scattering bound under group-averaged continuity.

    Valid when the display read-ahead covers one size group
    (:func:`group_read_ahead`): bursts of large (key-frame) blocks are
    absorbed by the buffered small blocks around them, so only the mean
    must stream in real time.
    """
    return _bound(
        stream, profile.granularity, profile.mean_bits, disk, "average VBR"
    )


def group_read_ahead(profile: BlockSizeProfile) -> int:
    """Read-ahead (blocks) that makes the averaged bound valid.

    One full size group: after buffering it, every subsequent window of
    ``group_blocks`` blocks has exactly the mean aggregate size.
    """
    return profile.group_blocks


@dataclass(frozen=True)
class VbrComparison:
    """The §6.2 comparison: constant-rate vs variable-rate bounds."""

    cbr_bound: float
    vbr_strict_bound: float
    vbr_average_bound: float
    profile: BlockSizeProfile

    @property
    def gain(self) -> float:
        """Averaged-VBR bound relative to the CBR bound (>1 = better)."""
        if self.cbr_bound <= 0:
            return float("inf")
        return self.vbr_average_bound / self.cbr_bound


def vbr_gain(
    stream: VideoStream,
    codec: Codec,
    granularity: int,
    disk: DiskParameters,
) -> VbrComparison:
    """Quantify §6.2: how much scattering tolerance VBR compression buys.

    The CBR baseline stores every frame at the stream's nominal
    (key-frame-sized) ``frame_size``; the VBR stream stores the codec's
    actual sizes.  Pipelined architecture throughout.
    """
    profile = block_size_profile(stream, codec, granularity)
    cbr_bits = granularity * stream.frame_size
    cbr = _bound(stream, granularity, cbr_bits, disk, "CBR")
    return VbrComparison(
        cbr_bound=cbr,
        vbr_strict_bound=strict_scattering_bound(stream, profile, disk),
        vbr_average_bound=average_scattering_bound(stream, profile, disk),
        profile=profile,
    )
