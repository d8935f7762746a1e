"""Media blocks: the basic unit of disk storage (§2).

"There are two types of blocks: (1) Homogeneous blocks, which contain data
belonging to one medium, and (2) Heterogeneous blocks, which contain data
belonging to multiple media."

A :class:`MediaBlock` is the logical content of one disk block slot.  The
simulation does not store sample bytes; a block carries the *sizes* that
drive timing plus the content *tokens* that round-trip tests verify.
Video tokens are per frame; audio content is summarized as a sample range
plus its average energy (what silence detection consumes).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import ParameterError

__all__ = ["BlockKind", "AudioPayload", "MediaBlock"]


class BlockKind(enum.Enum):
    """What a disk block holds."""

    VIDEO = "video"
    AUDIO = "audio"
    MIXED = "mixed"        # heterogeneous: video + audio together
    TEXT = "text"          # conventional file data stored in scatter gaps
    INDEX = "index"        # header / secondary / primary index blocks


@dataclass(frozen=True)
class AudioPayload:
    """The audio content of a block: a sample range and its energy."""

    start_sample: int
    sample_count: int
    average_energy: float
    bits: float

    def __post_init__(self) -> None:
        if self.start_sample < 0:
            raise ParameterError(f"start_sample must be >= 0, got {self.start_sample}")
        if self.sample_count < 1:
            raise ParameterError(f"sample_count must be >= 1, got {self.sample_count}")
        if not 0.0 <= self.average_energy <= 1.0:
            raise ParameterError(
                f"average_energy must be in [0, 1], got {self.average_energy}"
            )
        if self.bits <= 0:
            raise ParameterError(f"bits must be positive, got {self.bits}")


#: What a block of each media kind holds — (frames?, an audio payload?) —
#: and the error that names it.
MEDIA_NEEDS = {
    BlockKind.VIDEO: (
        True, False, "a VIDEO block needs frames and no audio payload"
    ),
    BlockKind.AUDIO: (
        False, True, "an AUDIO block needs an audio payload and no frames"
    ),
    BlockKind.MIXED: (
        True, True, "a MIXED block needs both frames and an audio payload"
    ),
}


@dataclass(frozen=True)
class MediaBlock:
    """Logical content of one stored block.

    Attributes
    ----------
    kind:
        Homogeneous video/audio, heterogeneous mixed, text, or index.
    video_tokens:
        Content tokens of the frames in this block, in display order
        (empty for non-video blocks).
    video_bits:
        Bits of video payload.
    audio:
        The audio payload, if any.
    """

    kind: BlockKind
    video_tokens: Tuple[str, ...] = ()
    video_bits: float = 0.0
    audio: Optional[AudioPayload] = None

    def __post_init__(self) -> None:
        if self.video_bits < 0:
            raise ParameterError(f"video_bits must be >= 0, got {self.video_bits}")
        needs = MEDIA_NEEDS.get(self.kind)
        if needs and needs[:2] != (bool(self.video_tokens), bool(self.audio)):
            raise ParameterError(needs[2])

    @property
    def payload_bits(self) -> float:
        """Total stored bits in this block."""
        audio_bits = self.audio.bits if self.audio is not None else 0.0
        return self.video_bits + audio_bits

    @property
    def frame_count(self) -> int:
        """Number of video frames in this block."""
        return len(self.video_tokens)

    @property
    def sample_count(self) -> int:
        """Number of audio samples in this block."""
        return self.audio.sample_count if self.audio is not None else 0
