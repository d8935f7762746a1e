"""Unit tests for the Multimedia Storage Manager."""

import random

import pytest

from repro.errors import ParameterError, UnknownStrandError
from repro.fs.blocks import BlockKind
from repro.media.audio import SilenceDetector, generate_talk_spurts
from repro.media.frames import frames_for_duration


@pytest.fixture
def frames(profile):
    return frames_for_duration(profile.video, 5.0, source="test")


@pytest.fixture
def chunks(profile, rng):
    return generate_talk_spurts(profile.audio, 5.0, 0.4, rng)


class TestPolicies:
    def test_policies_derived_for_all_media(self, msm):
        assert msm.policies.video.granularity >= 1
        assert msm.policies.audio.granularity >= 1
        assert msm.policies.mixed.granularity >= 1

    def test_policy_windows_valid(self, msm):
        for policy in (
            msm.policies.video, msm.policies.audio, msm.policies.mixed
        ):
            assert 0 <= policy.scattering_lower < policy.scattering_upper

    def test_block_fits_slot(self, msm, drive):
        assert msm.policies.video.block_bits <= drive.block_bits
        assert msm.policies.audio.block_bits <= drive.block_bits

    def test_policy_for_kind(self, msm):
        assert msm.policy_for(BlockKind.VIDEO) is msm.policies.video
        assert msm.policy_for(BlockKind.AUDIO) is msm.policies.audio
        assert msm.policy_for(BlockKind.MIXED) is msm.policies.mixed
        with pytest.raises(ParameterError):
            msm.policy_for(BlockKind.TEXT)


class TestVideoStorage:
    def test_store_and_verify(self, msm, frames):
        strand = msm.store_video_strand(frames)
        assert strand.is_finalized
        assert strand.kind is BlockKind.VIDEO
        assert strand.unit_count == len(frames)
        assert strand.duration == pytest.approx(5.0)
        strand.verify_against_index()

    def test_placement_respects_policy(self, msm, drive, frames):
        strand = msm.store_video_strand(frames)
        policy = msm.policies.video
        slots = strand.slots()
        for a, b in zip(slots, slots[1:]):
            gap = drive.access_gap(a, b)
            assert policy.scattering_lower - 1e-12 <= gap
            assert gap <= policy.scattering_upper + 1e-12

    def test_tokens_preserved_in_order(self, msm, frames):
        strand = msm.store_video_strand(frames)
        tokens = []
        for _, block in strand.blocks():
            tokens.extend(block.video_tokens)
        assert tokens == [f.token for f in frames]

    def test_empty_input_rejected(self, msm):
        with pytest.raises(ParameterError):
            msm.store_video_strand([])

    def test_ids_unique(self, msm, frames):
        a = msm.store_video_strand(frames)
        b = msm.store_video_strand(frames)
        assert a.strand_id != b.strand_id
        assert set(msm.strand_ids()) == {a.strand_id, b.strand_id}


class TestAudioStorage:
    def test_silence_elimination_saves_space(self, msm, profile, rng):
        chunks = generate_talk_spurts(profile.audio, 20.0, 0.5, rng)
        eliminated = msm.store_audio_strand(chunks, SilenceDetector())
        stored_all = msm.store_audio_strand(chunks, detector=None)
        assert eliminated.stored_block_count < stored_all.stored_block_count
        # Durations identical: silences still take playback time.
        assert eliminated.duration == pytest.approx(stored_all.duration)

    def test_duration_preserved(self, msm, chunks):
        strand = msm.store_audio_strand(chunks)
        assert strand.duration == pytest.approx(5.0, abs=0.3)

    def test_empty_rejected(self, msm):
        with pytest.raises(ParameterError):
            msm.store_audio_strand([])


class TestMixedStorage:
    def test_heterogeneous_blocks_carry_both(self, msm, frames, chunks):
        strand = msm.store_mixed_strand(frames, chunks)
        assert strand.kind is BlockKind.MIXED
        block = strand.block_at(0)
        assert block.frame_count >= 1
        assert block.sample_count >= 1

    def test_requires_both_media(self, msm, frames, chunks):
        with pytest.raises(ParameterError):
            msm.store_mixed_strand(frames, [])
        with pytest.raises(ParameterError):
            msm.store_mixed_strand([], chunks)


class TestDeletion:
    def test_delete_releases_space(self, msm, frames):
        before = msm.freemap.free_count
        strand = msm.store_video_strand(frames)
        assert msm.freemap.free_count < before
        msm.delete_strand(strand.strand_id)
        assert msm.freemap.free_count == before
        with pytest.raises(UnknownStrandError):
            msm.get_strand(strand.strand_id)

    def test_collect_garbage_respects_interests(self, msm, frames):
        kept = msm.store_video_strand(frames)
        doomed = msm.store_video_strand(frames)
        msm.interests.register("R1", kept.strand_id)
        victims = msm.collect_garbage()
        assert victims == [doomed.strand_id]
        assert msm.strand_ids() == [kept.strand_id]


class TestCopyPrimitives:
    def test_create_copied_strand_exact_slots(self, msm, frames):
        source = msm.store_video_strand(frames)
        free = [s for s in range(msm.freemap.slots)
                if msm.freemap.is_free(s)][:2]
        copy = msm.create_copied_strand(source, [0, 1], free)
        assert copy.slots() == free
        assert not msm.freemap.is_free(free[0])

    def test_create_copied_strand_rolls_back_on_conflict(self, msm, frames):
        source = msm.store_video_strand(frames)
        taken = source.slots()[0]
        free = [s for s in range(msm.freemap.slots)
                if msm.freemap.is_free(s)][:1]
        before = msm.freemap.free_count
        with pytest.raises(Exception):
            msm.create_copied_strand(source, [0, 1], [free[0], taken])
        assert msm.freemap.free_count == before

    def test_copy_rejects_silence_blocks(self, msm, profile, rng):
        chunks = generate_talk_spurts(profile.audio, 20.0, 0.6, rng)
        strand = msm.store_audio_strand(chunks)
        silent = next(
            n for n in range(strand.block_count)
            if strand.slot_of(n) is None
        )
        free = [s for s in range(msm.freemap.slots)
                if msm.freemap.is_free(s)][:1]
        with pytest.raises(ParameterError):
            msm.create_copied_strand(strand, [silent], free)

    def test_copy_mismatched_lengths(self, msm, frames):
        source = msm.store_video_strand(frames)
        with pytest.raises(ParameterError):
            msm.create_copied_strand(source, [0], [])


class TestOccupancy:
    def test_occupancy_tracks_usage(self, msm, frames):
        assert msm.occupancy == 0.0
        msm.store_video_strand(frames)
        assert msm.occupancy > 0.0
