"""Silence elimination in the audio recording path (§4).

"In silence elimination, if the average energy level over a block falls
below a threshold, no audio data is stored for that duration. ...
explicit delay holders have to be placed in audio strands to represent
silences.  We use NULL pointers in the primary blocks of a strand to
indicate silence for the duration of a block."

This module packs a chunked audio stream into block-sized units and
classifies each against the silence detector, producing the recording
plan the storage manager executes: store the block, or append a NULL
delay holder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.symbols import AudioStream
from repro.errors import ParameterError
from repro.fs.blocks import AudioPayload
from repro.media.audio import AudioChunk, SilenceDetector, chunks_to_blocks

__all__ = ["AudioBlockPlan", "plan_audio_blocks"]


@dataclass(frozen=True)
class AudioBlockPlan:
    """The recording plan for one audio stream.

    Attributes
    ----------
    payloads:
        One entry per block period, in order: an :class:`AudioPayload` to
        store, or None for a silence-eliminated block.
    samples_per_block:
        The granularity (η_as) the plan was cut at.
    trailing_samples:
        Samples in the final (possibly partial) block period.
    """

    payloads: Sequence[Optional[AudioPayload]]
    samples_per_block: int
    trailing_samples: int

    @property
    def block_count(self) -> int:
        """Total block periods, silent or stored."""
        return len(self.payloads)

    def samples_in_block(self, block_number: int) -> int:
        """Samples covered by a given block period."""
        if not 0 <= block_number < self.block_count:
            raise ParameterError(
                f"block {block_number} outside plan (0..{self.block_count - 1})"
            )
        if block_number == self.block_count - 1 and self.trailing_samples:
            return self.trailing_samples
        return self.samples_per_block


def plan_audio_blocks(
    stream: AudioStream,
    chunks: Sequence[AudioChunk],
    samples_per_block: int,
    detector: Optional[SilenceDetector] = None,
) -> AudioBlockPlan:
    """Cut a chunked stream into block periods and classify each.

    With ``detector=None`` silence elimination is disabled and every block
    is stored (the comparison baseline for the E10 experiment).
    """
    if samples_per_block < 1:
        raise ParameterError(
            f"samples_per_block must be >= 1, got {samples_per_block}"
        )
    if not chunks:
        return AudioBlockPlan(
            payloads=(), samples_per_block=samples_per_block,
            trailing_samples=0,
        )
    total_samples = chunks[-1].end_sample
    energies = list(chunks_to_blocks(chunks, samples_per_block))
    payloads: List[Optional[AudioPayload]] = []
    for number, energy in enumerate(energies):
        start = number * samples_per_block
        count = min(samples_per_block, total_samples - start)
        if detector is not None and detector.is_silent(energy):
            payloads.append(None)
        else:
            payloads.append(
                AudioPayload(
                    start_sample=start,
                    sample_count=count,
                    average_energy=energy,
                    bits=count * stream.sample_size,
                )
            )
    trailing = total_samples - (len(energies) - 1) * samples_per_block
    return AudioBlockPlan(
        payloads=tuple(payloads),
        samples_per_block=samples_per_block,
        trailing_samples=trailing if trailing != samples_per_block else 0,
    )
