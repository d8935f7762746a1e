"""Video frames: the basic unit of video (§2).

Digitization of motion video yields a sequence of frames; the prototype's
UVC hardware digitizes and compresses NTSC video (480×200 pixels, 12 bits
of color per pixel) at real-time rate.  The simulation does not move pixel
data around — a :class:`Frame` carries its *size* (the quantity the
storage analysis consumes) plus a content *token* so that file-system
round-trip tests can verify that playback returns exactly the recorded
frames in order, without materializing megabytes.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.core.symbols import VideoStream
from repro.errors import ParameterError
from repro.media.codec import Codec, FixedRateCodec

__all__ = [
    "NTSC_WIDTH",
    "NTSC_HEIGHT",
    "NTSC_BITS_PER_PIXEL",
    "raw_frame_bits",
    "ntsc_raw_frame_bits",
    "Frame",
    "FrameColumn",
    "frames_for_duration",
]

#: The prototype's capture resolution (§5.1).
NTSC_WIDTH = 480
NTSC_HEIGHT = 200
NTSC_BITS_PER_PIXEL = 12


def raw_frame_bits(width: int, height: int, bits_per_pixel: int) -> float:
    """Uncompressed frame size in bits."""
    if width < 1 or height < 1 or bits_per_pixel < 1:
        raise ParameterError(
            f"invalid frame dimensions {width}x{height}x{bits_per_pixel}"
        )
    return float(width * height * bits_per_pixel)


def ntsc_raw_frame_bits() -> float:
    """Raw size of one prototype NTSC frame: 480·200·12 = 1 152 000 bits."""
    return raw_frame_bits(NTSC_WIDTH, NTSC_HEIGHT, NTSC_BITS_PER_PIXEL)


@dataclass(frozen=True)
class Frame:
    """One captured video frame.

    Attributes
    ----------
    index:
        Position in the recording (0-based).
    size_bits:
        Compressed size of the frame in bits.
    timestamp:
        Capture time relative to the start of recording, seconds.
    token:
        Opaque content identifier; equality of tokens means equality of
        frame content for round-trip verification.
    """

    index: int
    size_bits: float
    timestamp: float
    token: str

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ParameterError(f"frame index must be >= 0, got {self.index}")
        if self.size_bits <= 0:
            raise ParameterError(
                f"frame size must be positive, got {self.size_bits}"
            )
        if self.timestamp < 0:
            raise ParameterError(
                f"timestamp must be >= 0, got {self.timestamp}"
            )


@dataclass(frozen=True, repr=False)
class FrameColumn(Sequence[Frame]):
    """Captured frames as columns: tokens, sizes, the frame period and the
    capture indices covered.  Indexing, iteration and slicing yield the
    frames a list would, each built only when asked for; a slice is a
    column.  Sizes are checked at capture; indices are never < 0."""

    tokens: Tuple[str, ...]
    sizes: List[float]
    period: float
    indices: range

    def __len__(self) -> int:
        return len(self.tokens)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return FrameColumn(
                self.tokens[key], self.sizes[key], self.period,
                self.indices[key],
            )
        index = self.indices[key]
        return Frame(
            index, self.sizes[key], index * self.period, self.tokens[key]
        )

    def __iter__(self) -> Iterator[Frame]:
        period = self.period
        for index, size, token in zip(self.indices, self.sizes, self.tokens):
            yield Frame(index, size, index * period, token)


def frames_for_duration(
    stream: VideoStream,
    duration: float,
    codec: Optional[Codec] = None,
    source: str = "camera0",
) -> FrameColumn:
    """All whole frames captured in *duration* seconds of recording (a
    product a few ulps short of a whole number, as 4.1 × 30 is, counts),
    compressed by *codec*: without one, each is the stream's nominal
    ``frame_size`` (the paper's fixed-size frames); a variable-rate codec
    gives varying sizes, the §6.2 extension."""
    if not 0 <= duration < math.inf:
        raise ParameterError(
            f"duration must be finite and >= 0, got {duration}"
        )
    product = duration * stream.frame_rate
    count = math.floor(product + 4 * math.ulp(product))
    if codec is None:
        codec = FixedRateCodec(ratio=1.0)
        raw = stream.frame_size
    else:
        raw = stream.frame_size * codec.nominal_ratio
    # One codec call for the whole size column; none for no frames.
    sizes = codec.compressed_sizes(raw, count) if count else []
    # Not `<= 0`: min() returns a leading NaN, which must hide no bad size.
    if not min(sizes, default=1.0) > 0:
        for bad in sizes:
            if bad <= 0:
                raise ParameterError(f"frame size must be positive, got {bad}")
    indices = range(count)
    tokens = tuple([f"{source}:frame:{index}" for index in indices])
    return FrameColumn(tokens, sizes, stream.unit_duration, indices)
