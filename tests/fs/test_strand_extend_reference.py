"""A recording taken in bulk equals the same recording taken block by block.

``reference_extend`` is the per-block path ``Strand.extend`` replaced,
kept here verbatim in effect: each stored block built one
``PrimaryEntry`` and went through ``StrandIndex.append``, which rebuilt
the open primary block's frozen ``SecondaryEntry`` with a count one
higher.  Over generated strands of every media kind — silence holders
included, fan-outs small enough that a strand crosses primary and
secondary block boundaries, and recordings taken in one call or several
— the two must agree on every column, index entry, secondary entry and
header count, before and after index slots are assigned, and the bulk
strand must survive a persist round trip unchanged.
"""

from hypothesis import given, settings, strategies as st

from repro.fs.blocks import AudioPayload, BlockKind, MediaBlock
from repro.fs.index import (
    PrimaryBlock,
    PrimaryEntry,
    SecondaryBlock,
    SecondaryEntry,
    StrandIndex,
)
from repro.rope.persist import _strand_from_json, _strand_to_json
from repro.fs.strand import Strand


def reference_index_append(index, entry, units):
    """The retired ``StrandIndex.append``."""
    if not index.primaries or index.primaries[-1].is_full:
        if not index.secondaries or index.secondaries[-1].is_full:
            index.secondaries.append(SecondaryBlock(index.secondary_fanout))
            index.header.secondary_slots.append(None)
        index.primaries.append(PrimaryBlock(index.primary_fanout))
        start = (len(index.primaries) - 1) * index.primary_fanout
        index.secondaries[-1].entries.append(SecondaryEntry(
            start_block=start, block_count=0, sector=-1, sector_count=0
        ))
    number = index.block_count
    index.primaries[-1].entries.append(entry)
    secondary = index.secondaries[-1]
    last = secondary.entries[-1]
    secondary.entries[-1] = SecondaryEntry(
        start_block=last.start_block, block_count=last.block_count + 1,
        sector=last.sector, sector_count=last.sector_count,
    )
    index.header.frame_count += units
    return number


def reference_extend(strand, contents, slots):
    """The retired ``append_block`` / ``append_silence`` loop."""
    placed = iter(slots)
    for item in contents:
        if isinstance(item, int):
            entry, units, slot = None, item, None
        else:
            slot = next(placed)
            units = (
                item.sample_count if strand.kind is BlockKind.AUDIO
                else item.frame_count
            )
            entry = PrimaryEntry(
                sector=slot * strand.sectors_per_block,
                sector_count=strand.sectors_per_block,
            )
        number = reference_index_append(strand.index, entry, units)
        if slot is not None:
            strand._contents[number] = item
        strand._slots.append(slot)
        strand._block_units.append(units)
        strand._block_bits.append(0.0 if slot is None else item.payload_bits)
        strand._block_tokens.append(() if slot is None else item.video_tokens)
        strand._units += units


def new_strand(kind, primary_fanout, secondary_fanout):
    return Strand(
        strand_id="S0001", kind=kind, unit_rate=30.0, granularity=4,
        sectors_per_block=64,
        index=StrandIndex(30.0, primary_fanout, secondary_fanout),
        scattering_lower=0.005, scattering_upper=0.05,
    )


@st.composite
def recordings(draw):
    """(kind, contents, slots, cuts): a recording in playback order, the
    distinct slots of its stored blocks, and where to split it into
    separate ``extend`` calls."""
    kind = draw(st.sampled_from(
        [BlockKind.VIDEO, BlockKind.AUDIO, BlockKind.MIXED]
    ))
    contents = []
    for number in range(draw(st.integers(0, 40))):
        if kind is not BlockKind.VIDEO and draw(st.booleans()):
            contents.append(draw(st.integers(1, 9)))      # silence holder
            continue
        frames = draw(st.integers(1, 4))
        audio = None if kind is BlockKind.VIDEO else AudioPayload(
            start_sample=number * 10, sample_count=draw(st.integers(1, 9)),
            average_energy=0.5, bits=8.0 * (number + 1),
        )
        contents.append(MediaBlock(
            kind=kind,
            video_tokens=() if kind is BlockKind.AUDIO else tuple(
                f"{number}.{i}" for i in range(frames)
            ),
            video_bits=0.0 if kind is BlockKind.AUDIO else 1000.0 + number,
            audio=audio,
        ))
    stored = sum(1 for item in contents if not isinstance(item, int))
    slots = draw(st.lists(
        st.integers(0, 500), min_size=stored, max_size=stored, unique=True
    ))
    cuts = sorted(draw(st.sets(st.integers(0, len(contents)), max_size=3)))
    return kind, contents, slots, cuts


def calls(contents, slots, cuts):
    """The recording split at *cuts*: (contents, slots) per call."""
    bounds = [0, *cuts, len(contents)]
    taken = 0
    for start, stop in zip(bounds, bounds[1:]):
        part = contents[start:stop]
        stored = sum(1 for item in part if not isinstance(item, int))
        yield part, slots[taken:taken + stored]
        taken += stored


def assert_same_strand(ours, theirs):
    count = ours.block_count
    assert count == theirs.block_count
    if count:
        assert ours.columns(0, count - 1) == theirs.columns(0, count - 1)
    assert list(ours.blocks()) == list(theirs.blocks())
    assert ours.unit_count == theirs.unit_count
    assert ours.stored_bits == theirs.stored_bits
    mine, yours = ours.index, theirs.index
    assert list(mine) == list(yours)
    assert [s.entries for s in mine.secondaries] == [
        s.entries for s in yours.secondaries
    ]
    assert mine.header == yours.header
    assert mine.index_block_count() == yours.index_block_count()


class TestBulkEqualsPerBlock:
    @settings(max_examples=200, deadline=None)
    @given(
        recording=recordings(),
        primary_fanout=st.integers(1, 5),
        secondary_fanout=st.integers(1, 3),
    )
    def test_columns_index_and_header(
        self, recording, primary_fanout, secondary_fanout
    ):
        kind, contents, slots, cuts = recording
        ours = new_strand(kind, primary_fanout, secondary_fanout)
        theirs = new_strand(kind, primary_fanout, secondary_fanout)
        for part, part_slots in calls(contents, slots, cuts):
            ours.extend(part, part_slots)
        reference_extend(theirs, contents, slots)
        assert_same_strand(ours, theirs)
        ours.verify_against_index()
        index_slots = list(range(1000, 1000 + ours.index.index_block_count()))
        if contents:
            ours.index.assign_slots(index_slots)
            theirs.index.assign_slots(index_slots)
            assert_same_strand(ours, theirs)

    @settings(max_examples=100, deadline=None)
    @given(recording=recordings(), secondary_fanout=st.integers(1, 3))
    def test_a_bulk_strand_survives_a_persist_round_trip(
        self, recording, secondary_fanout
    ):
        """Persisted fan-outs derive from the block size (a primary
        entry is half a secondary one), so the strand is built with
        that pair."""
        kind, contents, slots, _ = recording
        strand = new_strand(kind, 2 * secondary_fanout, secondary_fanout)
        strand.extend(contents, slots)
        if contents:
            strand.index.assign_slots(list(range(
                1000, 1000 + strand.index.index_block_count()
            )))
        loaded = _strand_from_json(
            _strand_to_json(strand.finalize()), 128.0 * secondary_fanout
        )
        assert_same_strand(loaded, strand)
        assert loaded.index.assigned_slots() == strand.index.assigned_slots()
        loaded.verify_against_index()
