"""Compression models for the capture path.

The prototype compresses video in hardware (the UVC board, §5.1); the
paper's storage model assumes **fixed-size** compressed frames, and §6.2
flags **variable-rate compression** ("such as differencing between
frames") as future work that "can result in varying but smaller sizes of
video frames".

Both regimes are modelled here:

* :class:`FixedRateCodec` — every frame compresses by the same ratio;
  reproduces the paper's baseline assumption.
* :class:`DifferencingCodec` — the §6.2 extension: periodic key frames at
  the base ratio with much smaller difference frames in between, a
  deterministic stand-in for inter-frame differencing.  Its mean ratio
  feeds the extended continuity analysis in
  :mod:`repro.analysis.experiments`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.errors import ParameterError

__all__ = ["Codec", "FixedRateCodec", "DifferencingCodec"]


class Codec:
    """Raw-size → compressed-size model, deterministic per frame index."""

    @property
    def nominal_ratio(self) -> float:
        """Raw/compressed ratio used to recover raw size from nominal."""
        raise NotImplementedError

    def compressed_sizes(self, raw_bits: float, count: int) -> List[float]:
        """Compressed sizes of frames ``0 .. count - 1``, each of raw size
        *raw_bits* — a capture's whole size column in one call."""
        raise NotImplementedError


@dataclass(frozen=True)
class FixedRateCodec(Codec):
    """Every frame compresses by exactly *ratio* (the paper's assumption)."""

    ratio: float

    def __post_init__(self) -> None:
        if self.ratio < 1.0:
            raise ParameterError(
                f"compression ratio must be >= 1, got {self.ratio}"
            )

    @property
    def nominal_ratio(self) -> float:
        return self.ratio

    def compressed_sizes(self, raw_bits: float, count: int) -> List[float]:
        if raw_bits <= 0:
            raise ParameterError(f"raw_bits must be positive, got {raw_bits}")
        return [raw_bits / self.ratio] * count


@dataclass(frozen=True)
class DifferencingCodec(Codec):
    """§6.2 variable-rate model: key frames + small difference frames.

    Every ``group_size``-th frame is a key frame compressed by
    ``key_ratio``; the rest are difference frames compressed by
    ``diff_ratio`` (>> key_ratio).  Deterministic in the frame index, so
    simulations remain reproducible.
    """

    key_ratio: float
    diff_ratio: float
    group_size: int = 10

    def __post_init__(self) -> None:
        if self.key_ratio < 1.0:
            raise ParameterError(
                f"key_ratio must be >= 1, got {self.key_ratio}"
            )
        if self.diff_ratio < self.key_ratio:
            raise ParameterError(
                "diff_ratio must be >= key_ratio (difference frames are "
                f"smaller), got {self.diff_ratio} < {self.key_ratio}"
            )
        if self.group_size < 1:
            raise ParameterError(
                f"group_size must be >= 1, got {self.group_size}"
            )

    @property
    def nominal_ratio(self) -> float:
        return self.key_ratio

    def compressed_sizes(self, raw_bits: float, count: int) -> List[float]:
        if raw_bits <= 0:
            raise ParameterError(f"raw_bits must be positive, got {raw_bits}")
        # Frame i is a key frame when i % group_size == 0.
        group = [raw_bits / self.key_ratio]
        group += [raw_bits / self.diff_ratio] * (self.group_size - 1)
        return (group * -(-count // self.group_size))[:count]
