"""Simulated media devices: frames, audio and codecs.

This package replaces the prototype's UVC capture/compression hardware and
audio digitizer (§5.1).  Media content is carried as sizes + opaque
content tokens, which is all the storage analysis and the file-system
round-trip tests require.
"""

from repro.media.audio import (
    AudioChunk,
    DEFAULT_SILENCE_THRESHOLD,
    SILENCE_ENERGY,
    SPEECH_ENERGY,
    SilenceDetector,
    chunks_to_blocks,
    generate_talk_spurts,
)
from repro.media.codec import Codec, DifferencingCodec, FixedRateCodec
from repro.media.frames import (
    Frame,
    NTSC_BITS_PER_PIXEL,
    NTSC_HEIGHT,
    NTSC_WIDTH,
    frames_for_duration,
    ntsc_raw_frame_bits,
    raw_frame_bits,
)

__all__ = [
    "AudioChunk",
    "Codec",
    "DEFAULT_SILENCE_THRESHOLD",
    "DifferencingCodec",
    "FixedRateCodec",
    "Frame",
    "NTSC_BITS_PER_PIXEL",
    "NTSC_HEIGHT",
    "NTSC_WIDTH",
    "SILENCE_ENERGY",
    "SPEECH_ENERGY",
    "SilenceDetector",
    "chunks_to_blocks",
    "frames_for_duration",
    "generate_talk_spurts",
    "ntsc_raw_frame_bits",
    "raw_frame_bits",
]
