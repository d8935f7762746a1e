"""Unit tests for the immutable strand abstraction."""

import pytest

from repro.errors import ParameterError, StrandImmutableError
from repro.fs.blocks import AudioPayload, BlockKind, MediaBlock
from repro.fs.index import StrandIndex
from repro.fs.strand import Strand


def make_strand(kind=BlockKind.VIDEO, rate=30.0, granularity=4):
    index = StrandIndex(
        frame_rate=rate, primary_fanout=8, secondary_fanout=8
    )
    return Strand(
        strand_id="S0001",
        kind=kind,
        unit_rate=rate,
        granularity=granularity,
        sectors_per_block=64,
        index=index,
        scattering_lower=0.005,
        scattering_upper=0.050,
    )


def video_block(n_frames=4, start=0):
    return MediaBlock(
        kind=BlockKind.VIDEO,
        video_tokens=tuple(f"f{start + i}" for i in range(n_frames)),
        video_bits=n_frames * 1000.0,
    )


def audio_block(samples=100, start=0):
    return MediaBlock(
        kind=BlockKind.AUDIO,
        audio=AudioPayload(
            start_sample=start, sample_count=samples,
            average_energy=0.5, bits=samples * 8,
        ),
    )


class TestRecording:
    def test_append_blocks(self):
        strand = make_strand()
        strand.extend([video_block()], [10])
        strand.extend([video_block(start=4)], [20])
        assert strand.block_count == 2
        assert strand.slots() == [10, 20]
        assert strand.unit_count == 8
        assert strand.duration == pytest.approx(8 / 30)
        assert strand.stored_bits == pytest.approx(8000.0)

    def test_slots_and_contents(self):
        strand = make_strand()
        strand.extend([video_block()], [10])
        assert strand.slot_of(0) == 10
        assert strand.block_at(0).video_tokens[0] == "f0"
        assert strand.slots() == [10]

    def test_silence_holders(self):
        strand = make_strand(kind=BlockKind.AUDIO, rate=8000.0,
                             granularity=100)
        strand.extend([audio_block(), 100, audio_block(start=200)], [5, 9])
        assert strand.block_count == 3
        assert strand.stored_block_count == 2
        assert strand.slot_of(1) is None
        assert strand.block_at(1) is None
        assert strand.unit_count == 300
        assert strand.units_of(1) == 100

    def test_video_strands_reject_silence(self):
        strand = make_strand()
        with pytest.raises(ParameterError):
            strand.extend([video_block(), 4], [1])
        assert strand.block_count == 0    # refused whole

    def test_bad_recordings_are_refused_whole(self):
        audio = make_strand(kind=BlockKind.AUDIO, rate=8000.0,
                            granularity=100)
        for contents, slots in (
            ([audio_block(), 0], [1]),             # silence covering nothing
            ([audio_block()], [-1]),                # a negative slot
            ([audio_block(), audio_block()], [1]),  # a block with no slot
        ):
            with pytest.raises(ParameterError):
                audio.extend(contents, slots)
        assert audio.block_count == 0 and audio.index.block_count == 0

    def test_block_units_tracked(self):
        strand = make_strand()
        # The second block is a partial tail.
        strand.extend([video_block(4), video_block(2, start=4)], [1, 2])
        assert strand.units_of(0) == 4
        assert strand.units_of(1) == 2


class TestImmutability:
    def test_finalize_freezes(self):
        strand = make_strand()
        strand.extend([video_block()], [1])
        strand.finalize()
        assert strand.is_finalized
        with pytest.raises(StrandImmutableError):
            strand.extend([video_block()], [2])

    def test_finalize_returns_self(self):
        strand = make_strand()
        strand.extend([video_block()], [1])
        assert strand.finalize() is strand


class TestConsistency:
    def test_verify_against_index(self):
        strand = make_strand(kind=BlockKind.AUDIO, rate=8000.0,
                             granularity=100)
        strand.extend([audio_block(), 100, audio_block(start=200)], [3, 7])
        strand.verify_against_index()

    def test_index_entries_carry_sectors(self):
        strand = make_strand()
        strand.extend([video_block()], [3])
        entry = strand.index.lookup(0)
        assert entry.sector == 3 * 64
        assert entry.sector_count == 64

    def test_out_of_range_access(self):
        strand = make_strand()
        strand.extend([video_block()], [1])
        with pytest.raises(ParameterError):
            strand.slot_of(1)
        with pytest.raises(ParameterError):
            strand.units_of(5)

    def test_blocks_iteration(self):
        strand = make_strand(kind=BlockKind.AUDIO, rate=8000.0,
                             granularity=100)
        strand.extend([audio_block(), 50], [3])
        pairs = list(strand.blocks())
        assert len(pairs) == 2
        assert pairs[0][1] is not None
        assert pairs[1][1] is None


class TestValidation:
    def test_rejects_non_media_kind(self):
        index = StrandIndex(
            frame_rate=30.0, primary_fanout=8, secondary_fanout=8
        )
        with pytest.raises(ParameterError):
            Strand(
                strand_id="S1", kind=BlockKind.TEXT, unit_rate=30.0,
                granularity=4, sectors_per_block=64, index=index,
            )

    def test_block_playback_duration(self):
        strand = make_strand(granularity=4, rate=30.0)
        assert strand.block_playback_duration == pytest.approx(4 / 30)
