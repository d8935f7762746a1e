"""Unit tests for the immutable strand abstraction."""

import pytest

from repro.errors import ParameterError, StrandImmutableError
from repro.fs.blocks import AudioPayload, BlockKind, MediaBlock
from repro.fs.index import StrandIndex
from repro.fs.strand import Strand
from tests.fs.test_strand_extend_reference import as_columns


def record(strand, contents, slots):
    """Append *contents* (blocks, and ints for silence holders) at *slots*."""
    strand.extend(*as_columns(strand.kind, contents, slots))


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


AUDIO = AudioPayload(
    start_sample=0, sample_count=100, average_energy=0.5, bits=800.0
)


class TestRecording:
    def test_append_blocks(self):
        strand = make_strand()
        record(strand, [video_block()], [10])
        record(strand, [video_block(start=4)], [20])
        assert strand.block_count == 2
        assert strand.slots() == [10, 20]
        assert strand.unit_count == 8
        assert strand.duration == pytest.approx(8 / 30)
        assert strand.stored_bits == pytest.approx(8000.0)

    def test_slots_and_contents(self):
        strand = make_strand()
        record(strand, [video_block()], [10])
        assert strand.slot_of(0) == 10
        assert strand.block_at(0).video_tokens[0] == "f0"
        assert strand.slots() == [10]

    def test_silence_holders(self):
        strand = make_strand(kind=BlockKind.AUDIO, rate=8000.0,
                             granularity=100)
        record(strand, [audio_block(), 100, audio_block(start=200)], [5, 9])
        assert strand.block_count == 3
        assert strand.stored_block_count == 2
        assert strand.slot_of(1) is None
        assert strand.block_at(1) is None
        assert strand.unit_count == 300
        assert strand.units_of(1) == 100

    def test_video_strands_reject_silence(self):
        strand = make_strand()
        with pytest.raises(ParameterError):
            record(strand, [video_block(), 4], [1])
        assert strand.block_count == 0    # refused whole

    def test_bad_recordings_are_refused_whole(self):
        audio = make_strand(kind=BlockKind.AUDIO, rate=8000.0,
                            granularity=100)
        payload = audio_block().audio
        for columns in (
            # silence covering nothing
            ([1, None], [100, 0], [0.0, 0.0], [(), ()], [payload, None]),
            # a negative slot
            ([-1], [100], [0.0], [()], [payload]),
            # a block with no slot
            ([1, None], [100, 100], [0.0, 0.0], [(), ()], [payload, payload]),
            # a block whose units are not its samples
            ([1], [99], [0.0], [()], [payload]),
            # columns of two lengths
            ([1, 2], [100], [0.0], [()], [payload]),
        ):
            with pytest.raises(ParameterError):
                audio.extend(*columns)
        assert audio.block_count == 0 and audio.index.block_count == 0

    @pytest.mark.parametrize("kind, columns, message", [
        (BlockKind.VIDEO, ([1], [1], [10.0], [()], None),
         "a VIDEO block needs frames and no audio payload"),
        (BlockKind.VIDEO, ([1], [1], [10.0], [("f",)], [AUDIO]),
         "a VIDEO block needs frames and no audio payload"),
        (BlockKind.AUDIO, ([1], [100], [0.0], [()], [None]),
         "an AUDIO block needs an audio payload and no frames"),
        (BlockKind.AUDIO, ([1], [100], [0.0], [("f",)], [AUDIO]),
         "an AUDIO block needs an audio payload and no frames"),
        (BlockKind.MIXED, ([1], [1], [10.0], [("f",)], [None]),
         "a MIXED block needs both frames and an audio payload"),
        (BlockKind.MIXED, ([1], [1], [10.0], [()], [AUDIO]),
         "a MIXED block needs both frames and an audio payload"),
        (BlockKind.VIDEO, ([1], [1], [-1.0], [("f",)], None),
         "video_bits must be >= 0"),
        (BlockKind.MIXED, ([1], [1], [-1.0], [("f",)], [AUDIO]),
         "video_bits must be >= 0"),
    ])
    def test_the_block_checks_run_over_the_columns(
        self, kind, columns, message
    ):
        """The checks a MediaBlock makes of itself, made once per
        recording, with the same errors."""
        strand = make_strand(kind=kind)
        with pytest.raises(ParameterError, match=message):
            strand.extend(*columns)
        assert strand.block_count == 0

    def test_block_units_tracked(self):
        strand = make_strand()
        # The second block is a partial tail.
        record(strand, [video_block(4), video_block(2, start=4)], [1, 2])
        assert strand.units_of(0) == 4
        assert strand.units_of(1) == 2


class TestBlocksAreViews:
    def test_a_mixed_block_round_trips_exactly(self):
        """0.1 + 0.2 - 0.2 is not 0.1: a MIXED block's video bits are
        kept, not derived from its payload."""
        strand = make_strand(kind=BlockKind.MIXED)
        block = MediaBlock(
            kind=BlockKind.MIXED, video_tokens=("f0",), video_bits=0.1,
            audio=AudioPayload(
                start_sample=0, sample_count=2, average_energy=0.5, bits=0.2,
            ),
        )
        record(strand, [block], [7])
        assert strand.block_at(0) == block
        assert strand.stored_bits == block.payload_bits

    def test_a_copy_takes_the_source_columns(self):
        strand = make_strand(kind=BlockKind.AUDIO, rate=8000.0,
                             granularity=100)
        record(strand, [audio_block(), 100, audio_block(start=200)], [3, 7])
        units, bits, tokens, audio = strand.contents([2, 0])
        assert units == [100, 100] and bits == [0.0, 0.0]
        assert tokens == [(), ()]
        assert audio == [strand.block_at(2).audio, strand.block_at(0).audio]


class TestImmutability:
    def test_finalize_freezes(self):
        strand = make_strand()
        record(strand, [video_block()], [1])
        strand.finalize()
        with pytest.raises(StrandImmutableError):
            record(strand, [video_block()], [2])

    def test_finalize_returns_self(self):
        strand = make_strand()
        record(strand, [video_block()], [1])
        assert strand.finalize() is strand


class TestConsistency:
    def test_verify_against_index(self):
        strand = make_strand(kind=BlockKind.AUDIO, rate=8000.0,
                             granularity=100)
        record(strand, [audio_block(), 100, audio_block(start=200)], [3, 7])
        strand.verify_against_index()

    def test_index_entries_carry_sectors(self):
        strand = make_strand()
        record(strand, [video_block()], [3])
        entry = strand.index.lookup(0)
        assert entry.sector == 3 * 64
        assert entry.sector_count == 64

    def test_out_of_range_access(self):
        strand = make_strand()
        record(strand, [video_block()], [1])
        with pytest.raises(ParameterError):
            strand.slot_of(1)
        with pytest.raises(ParameterError):
            strand.units_of(5)

    def test_blocks_iteration(self):
        strand = make_strand(kind=BlockKind.AUDIO, rate=8000.0,
                             granularity=100)
        record(strand, [audio_block(), 50], [3])
        assert strand.block_count == 2
        assert strand.block_at(0) is not None
        assert strand.block_at(1) is None


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
