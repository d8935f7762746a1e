"""The columnar playback plan equals the per-block reference, exactly.

``reference_fetches`` is the per-block overlap loop ``playback_plan``
used before it sliced strand columns; every comparison below is ``==``
on floats, never ``approx`` — the arithmetic did not change.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.config import TESTBED_1991
from repro.disk import build_drive
from repro.errors import IntervalError
from repro.fs import MultimediaStorageManager
from repro.fs.blocks import AudioPayload, BlockKind, MediaBlock
from repro.fs.index import StrandIndex
from repro.fs.persist import dump_image, load_image
from repro.fs.strand import Strand
from repro.media.audio import generate_talk_spurts
from repro.media.frames import frames_for_duration
from repro.rope import Media, MultimediaRope, MultimediaRopeServer, operations
from repro.rope.intervals import MediaTrack, Segment
from repro.rope.server import BlockFetch
from repro.service.session import PlaybackSession

VIDEO_RATE, AUDIO_RATE = 30.0, 40.0


def reference_fetches(strand, track, video):
    """The per-block loop the columnar planner replaced (kept verbatim)."""
    fetches = []
    g = track.granularity
    for number in range(track.first_block, track.last_block + 1):
        block_start = number * g
        block_units = strand.units_of(number)
        overlap_start = max(track.start_unit, block_start)
        overlap_end = min(track.end_unit, block_start + block_units)
        overlap = max(0, overlap_end - overlap_start)
        if overlap == 0:
            continue
        duration = overlap / track.rate
        content = strand.block_at(number)
        if content is None:
            fetches.append(BlockFetch(slot=None, bits=0.0, duration=duration))
            continue
        tokens = ()
        if video and content.video_tokens:
            first = overlap_start - block_start
            tokens = content.video_tokens[first:first + overlap]
        fetches.append(BlockFetch(
            slot=strand.slot_of(number), bits=content.payload_bits,
            duration=duration, tokens=tokens,
        ))
    return fetches


def reference_plan(mrs, request_id):
    """(video, audio) reference fetch lists for a PLAY request."""
    request = mrs.get_request(request_id)
    rope = mrs.get_rope(request.rope_id)
    segments = rope.segments
    if (request.start, request.length) != (0.0, rope.duration):
        segments = operations.substring(
            segments, Media.AUDIO_VISUAL, request.start, request.length
        )
    video, audio = [], []
    for segment in segments:
        if request.media.includes_video and segment.video is not None:
            strand = mrs.msm.get_strand(segment.video.strand_id)
            video += reference_fetches(strand, segment.video, True)
        if request.media.includes_audio and segment.audio is not None:
            strand = mrs.msm.get_strand(segment.audio.strand_id)
            audio += reference_fetches(strand, segment.audio, False)
    return video, audio


def reference_interleave(video, audio):
    """The object-at-a-time merge ``_interleave`` used to run."""
    sequence, v_time, a_time, vi, ai = [], 0.0, 0.0, 0, 0
    while vi < len(video) or ai < len(audio):
        if ai >= len(audio) or (vi < len(video) and v_time <= a_time):
            sequence.append(video[vi])
            v_time += video[vi].duration
            vi += 1
        else:
            sequence.append(audio[ai])
            a_time += audio[ai].duration
            ai += 1
    return sequence


def assert_plan_is_reference(mrs, request_id):
    plan = mrs.playback_plan(request_id)
    video, audio = reference_plan(mrs, request_id)
    for columns, reference in ((plan.video, video), (plan.audio, audio)):
        assert columns.slots == [f.slot for f in reference]
        assert columns.bits == [f.bits for f in reference]
        assert columns.durations == [f.duration for f in reference]
        assert list(columns) == reference          # incl. token slices
        assert len(columns) == len(reference)
    assert plan.tokens() == [t for f in video for t in f.tokens]
    assert plan.video_duration == sum(f.duration for f in video)
    assert plan.audio_duration == sum(f.duration for f in audio)
    merged = PlaybackSession._interleave(plan)
    assert list(merged) == reference_interleave(video, audio)
    return plan


def fresh_pair():
    profile = TESTBED_1991
    msm = MultimediaStorageManager(
        build_drive(), profile.video, profile.audio,
        profile.video_device, profile.audio_device,
    )
    return msm, MultimediaRopeServer(msm, auto_repair=False)


def install_strand(msm, strand_id, video, granularity, units, silent=()):
    """A hand-built finalized strand: block *n* holds ``units[n]`` units;
    audio blocks whose number is in *silent* are eliminated."""
    rate = VIDEO_RATE if video else AUDIO_RATE
    strand = Strand(
        strand_id=strand_id,
        kind=BlockKind.VIDEO if video else BlockKind.AUDIO,
        unit_rate=rate, granularity=granularity, sectors_per_block=64,
        index=StrandIndex(
            frame_rate=rate, primary_fanout=8, secondary_fanout=8
        ),
    )
    base = 1000 * len(msm._strands)
    for number, count in enumerate(units):
        if video:
            block = MediaBlock(
                kind=BlockKind.VIDEO,
                video_tokens=tuple(
                    f"{strand_id}.{number}.{i}" for i in range(count)
                ),
                video_bits=1000.0 * count + number,
            )
        elif number in silent:
            strand.append_silence(count)
            continue
        else:
            block = MediaBlock(kind=BlockKind.AUDIO, audio=AudioPayload(
                start_sample=number * granularity, sample_count=count,
                average_energy=0.5, bits=8.0 * count + number,
            ))
        strand.append_block(block, base + 7 * number)
    msm._strands[strand_id] = strand.finalize()
    return strand


def install_rope(mrs, rope_id, segments):
    return mrs._install(MultimediaRope(
        rope_id=rope_id, creator="u", segments=tuple(segments)
    ))


@st.composite
def strand_shapes(draw):
    """(granularity, units per block): full blocks and a last block that
    may be short."""
    granularity = draw(st.integers(1, 4))
    blocks = draw(st.integers(1, 6))
    last = draw(st.integers(1, granularity))
    return granularity, [granularity] * (blocks - 1) + [last]


@st.composite
def tracks(draw, strand):
    """Any interval whose blocks exist — also one reaching past a short
    last block's units, whose edge the planner must drop or clip."""
    limit = strand.block_count * strand.granularity
    start = draw(st.integers(0, limit - 1))
    length = draw(st.integers(1, limit - start))
    return MediaTrack(
        strand_id=strand.strand_id, start_unit=start, length_units=length,
        rate=strand.unit_rate, granularity=strand.granularity,
    )


fraction = st.floats(0.0, 1.0, allow_nan=False)
edits = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "substring"]),
        fraction, fraction, fraction,
    ),
    max_size=3,
)


class TestColumnsEqualReference:
    @settings(deadline=None, max_examples=120)
    @given(data=st.data())
    def test_generated_strands_ropes_and_requests(self, data):
        msm, mrs = fresh_pair()
        videos = [
            install_strand(msm, f"V{i}", True, *data.draw(strand_shapes()))
            for i in range(2)
        ]
        shape = data.draw(strand_shapes())
        silent = data.draw(st.sets(st.integers(0, len(shape[1]) - 1)))
        audio = install_strand(msm, "A0", False, *shape, silent=silent)
        segments = []
        for _ in range(data.draw(st.integers(1, 3))):
            video = data.draw(st.sampled_from(videos + [None]))
            segments.append(Segment(
                video=data.draw(tracks(video)) if video else None,
                audio=(
                    data.draw(tracks(audio))
                    if video is None or data.draw(st.booleans()) else None
                ),
            ))
        rope = install_rope(mrs, "R-base", segments)
        other = install_rope(mrs, "R-other", [
            Segment(video=data.draw(tracks(videos[1])))
        ])
        for verb, a, b, c in data.draw(edits):
            try:
                if verb == "insert":
                    rope = mrs.insert(
                        "u", rope.rope_id, a * rope.duration,
                        Media.AUDIO_VISUAL, other.rope_id,
                        b * other.duration, c * other.duration,
                    )
                elif verb == "delete":
                    rope = mrs.delete(
                        "u", rope.rope_id, Media.AUDIO_VISUAL,
                        a * rope.duration, b * rope.duration,
                    )
                else:
                    rope = mrs.substring(
                        "u", rope.rope_id, Media.AUDIO_VISUAL,
                        a * rope.duration, b * rope.duration,
                    )
            except IntervalError:
                continue                # an edit the rope layer refuses
        media = data.draw(st.sampled_from(list(Media)))
        start = data.draw(fraction) * rope.duration
        length = data.draw(st.one_of(
            st.none(), fraction.map(lambda f: f * (rope.duration - start))
        ))
        try:
            request_id = mrs.open_request(
                "u", rope.rope_id, start=start, length=length, media=media
            )
            mrs.playback_plan(request_id)
        except IntervalError:
            return                      # empty or out-of-range interval
        assert_plan_is_reference(mrs, request_id)


class TestDirectedCases:
    def _play(self, mrs, segments, media=Media.AUDIO_VISUAL, **interval):
        rope = install_rope(mrs, f"R{len(mrs.rope_ids())}", segments)
        return mrs.open_request("u", rope.rope_id, media=media, **interval)

    def _track(self, strand, start, length):
        return MediaTrack(
            strand.strand_id, start, length, strand.unit_rate,
            strand.granularity,
        )

    def test_one_block_track_clipped_on_both_edges(self):
        msm, mrs = fresh_pair()
        strand = install_strand(msm, "V0", True, 4, [4, 4, 4])
        request = self._play(mrs, [Segment(video=self._track(strand, 5, 2))])
        plan = assert_plan_is_reference(mrs, request)
        assert plan.video.slots == [strand.slot_of(1)]
        assert plan.video.durations == [2 / VIDEO_RATE]
        assert plan.video[0].tokens == ("V0.1.1", "V0.1.2")
        assert plan.video.bits == [strand.block_at(1).payload_bits]

    def test_both_edges_clipped_middle_blocks_whole(self):
        msm, mrs = fresh_pair()
        strand = install_strand(msm, "V0", True, 4, [4, 4, 4, 4])
        request = self._play(mrs, [Segment(video=self._track(strand, 3, 10))])
        plan = assert_plan_is_reference(mrs, request)
        assert plan.video.durations == [
            1 / VIDEO_RATE, 4 / VIDEO_RATE, 4 / VIDEO_RATE, 1 / VIDEO_RATE
        ]
        assert [len(f.tokens) for f in plan.video] == [1, 4, 4, 1]

    def test_short_last_block_and_an_edge_past_its_units_is_dropped(self):
        msm, mrs = fresh_pair()
        strand = install_strand(msm, "V0", True, 4, [4, 4, 1])
        whole = self._play(mrs, [Segment(video=self._track(strand, 0, 9))])
        assert assert_plan_is_reference(mrs, whole).video.durations[-1] == (
            1 / VIDEO_RATE
        )
        # Units 10..11 lie in block 2's address range but past its one
        # stored unit: the reference skips the block, so do the columns.
        beyond = self._play(mrs, [
            Segment(video=self._track(strand, 6, 5)),
            Segment(video=self._track(strand, 10, 2)),
        ])
        plan = assert_plan_is_reference(mrs, beyond)
        assert plan.video.slots == [strand.slot_of(1), strand.slot_of(2)]

    def test_silence_holders_have_no_slot_and_no_bits(self):
        msm, mrs = fresh_pair()
        strand = install_strand(
            msm, "A0", False, 3, [3, 3, 3, 2], silent={0, 2}
        )
        request = self._play(
            mrs, [Segment(audio=self._track(strand, 1, 9))], Media.AUDIO
        )
        plan = assert_plan_is_reference(mrs, request)
        assert plan.audio.slots == [
            None, strand.slot_of(1), None, strand.slot_of(3)
        ]
        assert plan.audio.bits[0] == plan.audio.bits[2] == 0.0
        assert plan.audio[0] == BlockFetch(None, 0.0, 2 / AUDIO_RATE)

    def test_interleave_order_and_off_zero_interval_after_edits(self):
        msm, mrs = fresh_pair()
        video = install_strand(msm, "V0", True, 4, [4] * 8)
        audio = install_strand(msm, "A0", False, 5, [5] * 8 + [3], {3})
        other = install_strand(msm, "V1", True, 2, [2] * 6)
        base = install_rope(mrs, "R-base", [Segment(
            video=self._track(video, 0, 32), audio=self._track(audio, 0, 43)
        )])
        source = install_rope(
            mrs, "R-src", [Segment(video=self._track(other, 0, 12))]
        )
        mrs.insert(
            "u", base.rope_id, 0.5, Media.AUDIO_VISUAL,
            source.rope_id, 0.1, 0.2,
        )
        mrs.delete("u", base.rope_id, Media.AUDIO_VISUAL, 0.2, 0.1)
        clip = mrs.substring(
            "u", base.rope_id, Media.AUDIO_VISUAL, 0.1, 0.9
        )
        assert clip.interval_count() > 2
        request = mrs.open_request("u", clip.rope_id, start=0.15, length=0.6)
        plan = assert_plan_is_reference(mrs, request)
        merged = PlaybackSession._interleave(plan)
        assert len(merged) == len(plan.video) + len(plan.audio)
        assert None in merged.slots

    def test_single_medium_interleave_is_the_identity(self):
        msm, mrs = fresh_pair()
        strand = install_strand(msm, "V0", True, 4, [4, 4])
        request = self._play(
            mrs, [Segment(video=self._track(strand, 0, 8))], Media.VIDEO
        )
        plan = mrs.playback_plan(request)
        assert PlaybackSession._interleave(plan) is plan.video


class TestPlansFollowTheStrand:
    def _recorded(self, mrs):
        profile = TESTBED_1991
        frames = frames_for_duration(profile.video, 4.0, source="cam")
        chunks = generate_talk_spurts(
            profile.audio, 4.0, 0.5, random.Random(5)
        )
        request_id, rope_id = mrs.record("u", frames=frames, chunks=chunks)
        mrs.stop(request_id)
        return rope_id

    def test_a_plan_built_after_relocate_block_sees_the_new_slot(self):
        msm, mrs = fresh_pair()
        rope_id = self._recorded(mrs)
        request = mrs.open_request("u", rope_id, media=Media.VIDEO)
        before = mrs.playback_plan(request)
        strand = msm.get_strand(
            mrs.get_rope(rope_id).segments[0].video.strand_id
        )
        new_slot = msm.drive.slots - 1
        assert new_slot not in before.video.slots
        strand.relocate_block(2, new_slot)
        after = assert_plan_is_reference(mrs, request)
        assert after.video.slots[2] == new_slot
        assert after.video.slots[:2] + after.video.slots[3:] == (
            before.video.slots[:2] + before.video.slots[3:]
        )
        assert after.video.bits == before.video.bits
        assert after.tokens() == before.tokens()

    def test_a_persisted_strand_plans_identically(self):
        msm, mrs = fresh_pair()
        rope_id = self._recorded(mrs)
        msm2, mrs2 = fresh_pair()
        load_image(dump_image(msm, mrs), msm2, mrs2)
        saved = mrs.playback_plan(
            mrs.open_request("u", rope_id, start=0.7, length=2.1)
        )
        loaded = assert_plan_is_reference(
            mrs2, mrs2.open_request("u", rope_id, start=0.7, length=2.1)
        )
        for ours, theirs in ((loaded.video, saved.video),
                             (loaded.audio, saved.audio)):
            assert list(ours) == list(theirs)
        assert None in loaded.audio.slots
