"""Audio streams, the energy model, and silence detection (§2, §4).

Digitization of audio yields a sequence of samples (the prototype's
hardware digitizes at 8 KBytes/s).  For silence elimination the paper
works block-wise: "if the average energy level over a block falls below a
threshold, no audio data is stored for that duration."

Samples are far too numerous to model individually, so the stream is
represented as a sequence of :class:`AudioChunk` runs — contiguous sample
ranges with a constant average energy.  Speech-like workloads alternate
talk spurts and silences; :func:`generate_talk_spurts` produces seeded,
reproducible streams with a target silence ratio, which the silence-
elimination experiments sweep.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Sequence

from repro.core.symbols import AudioStream
from repro.errors import ParameterError

__all__ = [
    "AudioChunk",
    "SilenceDetector",
    "generate_talk_spurts",
    "chunks_to_blocks",
    "DEFAULT_SILENCE_THRESHOLD",
    "SPEECH_ENERGY",
    "SILENCE_ENERGY",
]

#: Default energy threshold below which a block counts as silence.
DEFAULT_SILENCE_THRESHOLD = 0.10

#: Representative average energies for generated workloads (arbitrary
#: linear scale in [0, 1]).
SPEECH_ENERGY = 0.55
SILENCE_ENERGY = 0.02


@dataclass(frozen=True)
class AudioChunk:
    """A run of consecutive samples with a constant average energy.

    Attributes
    ----------
    start_sample:
        Index of the first sample in the run.
    count:
        Number of samples in the run.
    energy:
        Average energy over the run, in [0, 1].
    """

    start_sample: int
    count: int
    energy: float

    def __post_init__(self) -> None:
        if self.start_sample < 0:
            raise ParameterError(
                f"start_sample must be >= 0, got {self.start_sample}"
            )
        if self.count < 1:
            raise ParameterError(f"count must be >= 1, got {self.count}")
        if not 0.0 <= self.energy <= 1.0:
            raise ParameterError(
                f"energy must be in [0, 1], got {self.energy}"
            )

    @property
    def end_sample(self) -> int:
        """One past the last sample of the run."""
        return self.start_sample + self.count

    def duration(self, stream: AudioStream) -> float:
        """Run length in seconds at the stream's sample rate."""
        return self.count / stream.sample_rate


@dataclass(frozen=True)
class SilenceDetector:
    """Block-level silence classifier (§4)."""

    threshold: float = DEFAULT_SILENCE_THRESHOLD

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold <= 1.0:
            raise ParameterError(
                f"threshold must be in [0, 1], got {self.threshold}"
            )

    def is_silent(self, average_energy: float) -> bool:
        """True when a block's average energy falls below the threshold."""
        return average_energy < self.threshold


def generate_talk_spurts(
    stream: AudioStream,
    duration: float,
    silence_ratio: float,
    rng: random.Random,
    mean_spurt: float = 1.2,
) -> List[AudioChunk]:
    """A seeded speech-like stream: alternating talk spurts and silences.

    Parameters
    ----------
    duration:
        Total stream length, seconds.
    silence_ratio:
        Target fraction of the stream that is silent, in [0, 1).
    mean_spurt:
        Mean talk-spurt length, seconds (silence runs scale to hit the
        target ratio); run lengths are exponentially distributed, the
        classic speech on/off model.
    """
    if duration <= 0:
        raise ParameterError(f"duration must be positive, got {duration}")
    if not 0.0 <= silence_ratio < 1.0:
        raise ParameterError(
            f"silence_ratio must be in [0, 1), got {silence_ratio}"
        )
    if mean_spurt <= 0:
        raise ParameterError(f"mean_spurt must be positive, got {mean_spurt}")
    total_samples = int(duration * stream.sample_rate)
    if silence_ratio == 0.0:
        mean_silence = 0.0
    else:
        mean_silence = mean_spurt * silence_ratio / (1.0 - silence_ratio)
    chunks: List[AudioChunk] = []
    cursor = 0
    talking = True
    while cursor < total_samples:
        if talking or mean_silence == 0.0:
            length_s = rng.expovariate(1.0 / mean_spurt)
            energy = min(1.0, max(0.2, rng.gauss(SPEECH_ENERGY, 0.1)))
        else:
            length_s = rng.expovariate(1.0 / mean_silence)
            energy = min(0.09, max(0.0, rng.gauss(SILENCE_ENERGY, 0.01)))
        count = max(1, int(length_s * stream.sample_rate))
        count = min(count, total_samples - cursor)
        chunks.append(
            AudioChunk(start_sample=cursor, count=count, energy=energy)
        )
        cursor += count
        talking = not talking
    return chunks


def chunks_to_blocks(
    chunks: Sequence[AudioChunk], samples_per_block: int
) -> Iterator[float]:
    """Yield the average energy of each consecutive block of samples.

    Blocks are ``samples_per_block`` long; the final partial block (if
    any) is averaged over the samples it actually covers.  This is the
    quantity the §4 silence detector thresholds.
    """
    if samples_per_block < 1:
        raise ParameterError(
            f"samples_per_block must be >= 1, got {samples_per_block}"
        )
    if not chunks:
        return
    total = chunks[-1].end_sample
    chunk_iter = iter(chunks)
    current = next(chunk_iter)
    for block_start in range(0, total, samples_per_block):
        block_end = min(block_start + samples_per_block, total)
        weighted = 0.0
        covered = 0
        position = block_start
        while position < block_end:
            while current.end_sample <= position:
                current = next(chunk_iter)
            overlap = min(current.end_sample, block_end) - position
            weighted += current.energy * overlap
            covered += overlap
            position += overlap
        yield weighted / covered
