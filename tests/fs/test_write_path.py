"""The write path owns every slot exactly: what the free map holds is
the disjoint union of what the strands hold, after every operation —
the ones that fail included.

The directed cases pin the leaks the single writer closed (each fails
at the commit before it): a RECORD that ran out of placeable space
mid-store left 373 slots owned by no strand and one admission slot held
with every request stopped; a store failing only at index-block
placement kept its media slots; a repair plan failing on its third
target kept the two it had reserved.  The hypothesis case is the
hand-written seed of ROADMAP's stateful-fuzz invariant "freemap ↔ strand
index consistent".
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.rope.scattering_repair as repair_module
from repro.config import TESTBED_1991
from repro.core.symbols import DisplayDeviceParameters
from repro.disk import ConstrainedScatterAllocator, build_drive
from repro.errors import (
    AllocationError,
    DiskFullError,
    ParameterError,
    ScatteringError,
)
from repro.fs import MultimediaStorageManager
from repro.media.audio import AudioChunk, generate_talk_spurts
from repro.media.frames import frames_for_duration
from repro.rope import MultimediaRopeServer, build_rope_server
from repro.rope.intervals import MediaTrack
from tests.fs.ownership import assert_ownership_exact

PROFILE = TESTBED_1991


def video(seconds, source="clip"):
    return frames_for_duration(PROFILE.video, seconds, source=source)


def talk(seconds, silence, seed):
    return generate_talk_spurts(
        PROFILE.audio, seconds, silence, random.Random(seed)
    )


def disk_full(*_args, **_kwargs):
    raise DiskFullError("no room for the index blocks")


def leave_free_only_a_chain(msm, length):
    """Take every free slot but the *length* a video strand would be
    chain-placed on from the lowest free slot (its head and first hops);
    returns the slots taken."""
    placer = msm._placer(msm.policies.video)
    chain = placer.allocate_strand(length)
    placer.release(chain)
    others = sorted(set(msm.freemap.free_slots()) - set(chain))
    msm.freemap.claim(others)
    return others


class TestFailedRecordLeaksNothing:
    def test_record_until_the_disk_cannot_place(self):
        """Parent: the 16th 60-s record raises ``ScatteringError`` with
        373 slots owned by no strand and ``active_count == 1``."""
        mrs = build_rope_server()
        msm = mrs.msm
        clip = video(60.0)
        recorded = 0
        with pytest.raises(ScatteringError):
            for _ in range(40):
                request_id, _rope = mrs.record("u", frames=clip)
                mrs.stop(request_id)
                recorded += 1
        assert recorded == 15
        assert_ownership_exact(msm)
        assert msm.admission.active_count == 0
        assert len(msm.strand_ids()) == recorded
        assert len(mrs.rope_ids()) == recorded

    def test_failed_audio_half_takes_the_video_half_with_it(
        self, mrs, monkeypatch
    ):
        msm = mrs.msm
        stores = iter([msm._gap_filler.place, disk_full])
        monkeypatch.setattr(
            msm._gap_filler, "place",
            lambda count: next(stores)(count),
        )
        with pytest.raises(DiskFullError):
            mrs.record("u", frames=video(2.0), chunks=talk(2.0, 0.3, 1))
        assert msm.strand_ids() == [] and mrs.rope_ids() == []
        assert msm.freemap.free_count == msm.freemap.slots
        assert msm.admission.active_count == 0

    def test_heterogeneous_without_both_media_admits_nothing(self, mrs):
        with pytest.raises(ParameterError):
            mrs.record("u", frames=video(1.0), heterogeneous=True)
        assert mrs.msm.admission.active_count == 0

    def test_mixed_video_outlasting_its_audio_is_refused(self, mrs):
        """Parent: 40 MIXED blocks stored, blocks 10-39 each holding one
        audio sample from past the end of the 1-s recording."""
        msm = mrs.msm
        with pytest.raises(ParameterError, match="never captured"):
            mrs.record(
                "librarian", frames=video(4.0), chunks=talk(1.0, 0.0, 4),
                heterogeneous=True,
            )
        assert msm.strand_ids() == [] and mrs.rope_ids() == []
        assert msm.freemap.free_count == msm.freemap.slots
        assert msm.admission.active_count == 0


class TestFailedStoreOwnsNothing:
    @pytest.mark.parametrize("medium", ["video", "audio", "mixed", "copy"])
    def test_index_placement_failure_returns_the_media_slots(
        self, msm, monkeypatch, medium
    ):
        source = msm.store_video_strand(video(2.0))
        free = msm.freemap.free_slots()[:2]
        before = (msm.strand_ids(), msm.freemap.used_slots())
        monkeypatch.setattr(msm._gap_filler, "place", disk_full)
        with pytest.raises(DiskFullError):
            if medium == "video":
                msm.store_video_strand(video(3.0))
            elif medium == "audio":
                msm.store_audio_strand(talk(3.0, 0.4, 2))
            elif medium == "mixed":
                msm.store_mixed_strand(video(3.0), talk(3.0, 0.0, 3))
            else:
                msm.create_copied_strand(source, [0, 1], free)
        assert (msm.strand_ids(), msm.freemap.used_slots()) == before
        assert_ownership_exact(msm)

    def test_chain_failure_mid_strand_returns_the_placed_prefix(
        self, msm, monkeypatch
    ):
        """Every slot but a head and its first two hops is taken, so the
        window closes at the third hop.  The rollback releases exactly the
        placed prefix, which the bitmap then holds and the free count
        already counts; afterwards the map is where it started."""
        others = leave_free_only_a_chain(msm, 3)
        chain, free = msm.freemap.free_slots(), msm.freemap.free_count
        assert free == len(chain) == 3
        released = []
        release = ConstrainedScatterAllocator.release

        def seen(self, slots):
            released.append((sorted(slots), msm.freemap.free_slots(),
                             msm.freemap.free_count))
            release(self, slots)

        monkeypatch.setattr(ConstrainedScatterAllocator, "release", seen)
        with pytest.raises(ScatteringError):
            msm.store_video_strand(video(3.0))
        assert released == [(chain, [], 0)]
        assert msm.freemap.free_slots() == chain
        assert msm.freemap.free_count == free
        for slot in others:
            msm.freemap.release(slot)
        assert msm.freemap.free_count == msm.freemap.slots

    def test_all_silence_audio_strand_still_stores(self, msm):
        """Zero stored blocks: no media slot to place, index blocks only."""
        samples = int(PROFILE.audio.sample_rate)
        quiet = [
            AudioChunk(start_sample=i * samples, count=samples, energy=0.0)
            for i in range(3)
        ]
        strand = msm.store_audio_strand(quiet)
        assert strand.stored_block_count == 0
        assert strand.unit_count == 3 * samples
        assert_ownership_exact(msm)

    def test_failed_relocation_leaves_the_strand_where_it_was(
        self, msm, monkeypatch
    ):
        strand = msm.store_video_strand(video(3.0))
        before = (strand.slots(), msm.freemap.used_slots())

        def no_room(self, count, hint=None):
            raise ScatteringError("nowhere to go")

        monkeypatch.setattr(
            ConstrainedScatterAllocator, "allocate_strand", no_room
        )
        assert msm.relocate_strand(strand.strand_id, 100) == 0
        assert (strand.slots(), msm.freemap.used_slots()) == before
        strand.verify_against_index()


class TestFailedRepairPlanLeaksNothing:
    @pytest.fixture
    def far_pair(self):
        """A tight-bound MSM with one strand at each end of the disk."""
        narrow = DisplayDeviceParameters(
            display_rate=PROFILE.video_device.display_rate, buffer_frames=2
        )
        msm = MultimediaStorageManager(
            build_drive(), PROFILE.video, PROFILE.audio, narrow,
            PROFILE.audio_device,
        )
        mrs = MultimediaRopeServer(msm, auto_repair=False)
        early = msm.store_video_strand(video(2.0, "early"), hint=0)
        late = msm.store_video_strand(
            video(2.0, "late"), hint=msm.drive.slots - 1
        )
        return mrs, early, late

    def test_plan_failing_on_its_third_target(self, far_pair, monkeypatch):
        """Parent: the two slots reserved before the failure stay taken."""
        mrs, early, late = far_pair
        msm, drive = mrs.msm, mrs.msm.drive
        calls = []
        original = repair_module.find_free_slot_near

        def third_target_fails(*args, **kwargs):
            if len(calls) == 2:
                raise DiskFullError("nothing near the third target")
            calls.append(original(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(
            repair_module, "find_free_slot_near", third_target_fails
        )
        # A bound reachable only in hops of <= 300 cylinders: the ~1000-
        # cylinder seam then needs at least three evenly spread copies.
        bound = drive.rotation.average_latency + drive.seek_model.seek_time(
            300
        )
        track = MediaTrack(
            strand_id=late.strand_id, start_unit=0,
            length_units=late.unit_count, rate=late.unit_rate,
            granularity=late.granularity,
        )
        used_before = msm.freemap.used_slots()
        with pytest.raises(DiskFullError):
            mrs.repairer._plan_copies(
                track, late, early.slots()[-1], bound
            )
        assert len(calls) == 2 and len(set(calls)) == 2
        assert msm.freemap.used_slots() == used_before
        assert_ownership_exact(msm)

    def test_repair_whose_copy_cannot_be_indexed(self, far_pair, monkeypatch):
        mrs, early, late = far_pair
        msm = mrs.msm
        rope_a = mrs.adopt_strands("u", video_strand_id=early.strand_id)
        rope_b = mrs.adopt_strands("u", video_strand_id=late.strand_id)
        merged = mrs.concate("u", rope_a, rope_b)
        assert any(
            check.violates
            for check in mrs.repairer.check_segments(merged.segments)
        )
        monkeypatch.setattr(msm._gap_filler, "place", disk_full)
        used_before = msm.freemap.used_slots()
        with pytest.raises(DiskFullError):
            mrs.repairer.repair_segments(merged.segments)
        assert msm.freemap.used_slots() == used_before
        assert_ownership_exact(msm)


# -- (ii) random interleavings ---------------------------------------------------

OPERATIONS = st.one_of(
    st.tuples(st.just("video"), st.integers(1, 40)),
    st.tuples(st.just("audio"), st.integers(0, 2**16)),
    st.tuples(st.just("mixed"), st.integers(1, 20)),
    st.tuples(st.just("copy"), st.integers(0, 2**16)),
    st.tuples(st.just("copy-onto-taken"), st.integers(0, 2**16)),
    st.tuples(st.just("delete"), st.integers(0, 2**16)),
    st.tuples(st.just("gc"), st.integers(0, 2**16)),
    st.tuples(st.just("relocate"), st.integers(0, 2**16)),
    st.tuples(st.just("store-fails-at-index"), st.integers(1, 3)),
    st.tuples(st.just("store-fails-mid-chain"), st.integers(1, 25)),
)


def _apply(msm, operation, argument):
    """One step of the interleaving; expected failures are swallowed."""
    ids = msm.strand_ids()
    rng = random.Random(argument)
    if operation == "video":
        msm.store_video_strand(video(argument / 10.0))
    elif operation == "audio":
        msm.store_audio_strand(
            talk(1.0 + argument % 3, (argument % 10) / 10.0, argument)
        )
    elif operation == "mixed":
        seconds = argument / 10.0
        msm.store_mixed_strand(
            video(seconds), talk(max(seconds, 0.5), 0.0, argument)
        )
    elif operation in ("copy", "copy-onto-taken") and ids:
        source = msm.get_strand(rng.choice(ids))
        numbers = [
            n for n in range(source.block_count)
            if source.slot_of(n) is not None
        ][:3]
        if not numbers:
            return
        targets = rng.sample(msm.freemap.free_slots(), len(numbers))
        if operation == "copy-onto-taken":
            targets[-1] = source.slots()[0]
            with pytest.raises(AllocationError):
                msm.create_copied_strand(source, numbers, targets)
        else:
            msm.create_copied_strand(source, numbers, targets)
    elif operation == "delete" and ids:
        msm.delete_strand(rng.choice(ids))
    elif operation == "gc":
        for strand_id in ids:
            if rng.random() < 0.5:
                msm.interests.register("keeper", strand_id)
        msm.collect_garbage()
    elif operation == "relocate" and ids:
        msm.relocate_strand(rng.choice(ids), rng.randrange(msm.drive.slots))
    elif operation == "store-fails-at-index":
        store = {
            1: lambda: msm.store_video_strand(video(1.0)),
            2: lambda: msm.store_audio_strand(talk(1.0, 0.3, 1)),
            3: lambda: msm.store_mixed_strand(video(1.0), talk(1.0, 0.0, 1)),
        }[argument]
        real = msm._gap_filler.place
        msm._gap_filler.place = disk_full
        try:
            with pytest.raises(DiskFullError):
                store()
        finally:
            msm._gap_filler.place = real
    elif operation == "store-fails-mid-chain":
        # 4 s of video is more blocks than the head and *argument* hops.
        others = leave_free_only_a_chain(msm, argument + 1)
        try:
            with pytest.raises(ScatteringError):
                msm.store_video_strand(video(4.0))
        finally:
            for slot in others:
                msm.freemap.release(slot)


@settings(
    max_examples=25, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.lists(OPERATIONS, min_size=1, max_size=14))
def test_freemap_is_the_disjoint_union_of_strand_slots(steps):
    msm = MultimediaStorageManager(
        build_drive(), PROFILE.video, PROFILE.audio,
        PROFILE.video_device, PROFILE.audio_device,
    )
    for operation, argument in steps:
        _apply(msm, operation, argument)
        assert_ownership_exact(msm)
        for strand_id in msm.strand_ids():
            msm.get_strand(strand_id).verify_against_index()
