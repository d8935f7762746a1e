"""A recording taken in bulk equals the list of blocks appended.

``expected`` states what a strand holds after any number of
``Strand.extend`` calls, from the concatenation of what they appended
alone: one block per item, in order — a stored block at its slot with
its payload bits, tokens and units (frames, or samples for audio), a
silence holder at no slot covering its units.  The index holds one
primary entry per block (its sector range, or None for silence), the
primaries full but the last, one secondary entry per primary block
(its first block and count, no address until the index has slots), the
secondaries full but the last, and a header counting every unit.  Over
generated strands of every media kind — silence holders included,
fan-outs small enough that a strand crosses primary and secondary block
boundaries, and recordings taken in one call or several — the strand
must equal the statement, before and after index slots are assigned.
``Strand.extend`` takes a recording as columns; ``as_columns`` is the
one place a recording stated as blocks becomes them.
"""

from hypothesis import given, settings, strategies as st

from repro.fs.blocks import AudioPayload, BlockKind, MediaBlock
from repro.fs.index import PrimaryEntry, SecondaryEntry, StrandIndex
from repro.fs.strand import Strand


def chunks(items, size):
    """*items* in consecutive runs of *size*, the last possibly shorter."""
    return [items[at:at + size] for at in range(0, len(items), size)]


def as_columns(kind, contents, slots):
    """The ``(slots, units, bits, tokens, audio)`` columns
    ``Strand.extend`` takes for *contents* (a :class:`MediaBlock` per
    stored block, an int of units per silence holder) at *slots*."""
    placed, columns = iter(slots), ([], [], [], [], [])
    for item in contents:
        if isinstance(item, int):
            row = (None, item, 0.0, (), None)
        else:
            units = (
                item.sample_count if kind is BlockKind.AUDIO
                else len(item.video_tokens)
            )
            row = (
                next(placed), units, item.video_bits, item.video_tokens,
                item.audio,
            )
        for column, value in zip(columns, row):
            column.append(value)
    return columns


def expected(strand, contents, slots):
    """``(columns, primary entries per primary block, secondary entries per
    secondary block, frame count)`` of *strand* once *contents* are
    appended at *slots*."""
    audio, placed = strand.kind is BlockKind.AUDIO, iter(slots)
    spb = strand.sectors_per_block
    columns, entries = ([], [], [], []), []
    for item in contents:
        if isinstance(item, int):   # a silence holder covering *item* units
            row, entry = (None, 0.0, item, ()), None
        else:
            slot = next(placed)
            units = item.sample_count if audio else len(item.video_tokens)
            row = (slot, item.payload_bits, units, item.video_tokens)
            entry = PrimaryEntry(slot * spb, spb)
        for column, value in zip(columns, row):
            column.append(value)
        entries.append(entry)
    fanout = strand.index.primary_fanout
    primaries = chunks(entries, fanout)
    secondaries = [
        [SecondaryEntry(first * fanout, len(primaries[first]), -1, 0)
         for first in numbers]
        for numbers in chunks(range(len(primaries)), strand.index.secondary_fanout)
    ]
    return columns, primaries, secondaries, sum(columns[2])


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


def assert_strand_is(strand, contents, slots, assigned=None):
    """*strand* holds exactly *contents* at *slots*; with *assigned* (the
    index's slots, header first), each secondary entry carries its
    primary block's slot."""
    columns, primaries, secondaries, frames = expected(strand, contents, slots)
    count = len(contents)
    assert strand.block_count == count and strand.unit_count == frames
    assert strand.stored_bits == sum(columns[1])
    if count:
        assert strand.columns(0, count - 1) == columns
    assert [(n, strand.block_at(n)) for n in range(count)] == [
        (n, None if isinstance(item, int) else item)
        for n, item in enumerate(contents)
    ]
    index = strand.index
    fanout = index.primary_fanout
    assert [
        [index.lookup(first * fanout + n) for n in range(len(p.entries))]
        for first, p in enumerate(index.primaries)
    ] == primaries
    if assigned is not None:
        slot_of = assigned[1 + len(secondaries):]
        secondaries = [
            [SecondaryEntry(e.start_block, e.block_count,
                            slot_of[e.start_block // index.primary_fanout], 1)
             for e in entries]
            for entries in secondaries
        ]
        assert index.header.slot == assigned[0]
        assert index.header.secondary_slots == assigned[1:1 + len(secondaries)]
    assert [s.entries for s in index.secondaries] == secondaries
    assert len(index.header.secondary_slots) == len(secondaries)
    assert index.header.frame_count == frames


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
        strand = new_strand(kind, primary_fanout, secondary_fanout)
        for part, part_slots in calls(contents, slots, cuts):
            strand.extend(*as_columns(kind, part, part_slots))
        assert_strand_is(strand, contents, slots)
        strand.verify_against_index()
        if contents:
            assigned = list(range(1000, 1000 + strand.index.index_block_count()))
            strand.index.assign_slots(assigned)
            assert_strand_is(strand, contents, slots, assigned)
