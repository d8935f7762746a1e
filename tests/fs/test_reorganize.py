"""Unit tests for §6.2 storage reorganization."""

import pytest

from repro.disk import ScatterBounds
from repro.errors import ParameterError
from repro.fs.reorganize import Reorganizer
from repro.media.frames import frames_for_duration
from repro.rope import Media, MultimediaRopeServer


@pytest.fixture
def clip(profile):
    return frames_for_duration(profile.video, 8.0, source="clip")


def fragment(msm, clip, target=0.7):
    """Fill to *target* occupancy with strands, then delete every other."""
    strands = []
    while msm.occupancy < target:
        strands.append(msm.store_video_strand(clip))
    for victim in strands[::2]:
        msm.delete_strand(victim.strand_id)
    return [s for i, s in enumerate(strands) if i % 2 == 1]


def tight_bounds(drive):
    rotation = drive.rotation.average_latency
    return ScatterBounds(0.0, rotation + drive.seek_model.seek_time(3) + 1e-6)


class TestFeasibilityProbe:
    def test_trial_does_not_consume_space(self, msm, clip):
        msm.store_video_strand(clip)
        free_before = msm.freemap.free_count
        reorganizer = Reorganizer(msm)
        assert reorganizer.placement_feasible(50)
        assert msm.freemap.free_count == free_before

    def test_infeasible_on_fragmented_disk(self, msm, drive, clip):
        fragment(msm, clip)
        reorganizer = Reorganizer(msm)
        assert not reorganizer.placement_feasible(160, tight_bounds(drive))


class TestMakeRoom:
    def test_noop_when_already_feasible(self, msm, clip):
        msm.store_video_strand(clip)
        report = Reorganizer(msm).make_room(20)
        assert report.success
        assert report.strands_migrated == 0
        assert report.blocks_moved == 0

    def test_reorganization_restores_feasibility(self, msm, drive, clip):
        survivors = fragment(msm, clip)
        reorganizer = Reorganizer(msm)
        bounds = tight_bounds(drive)
        assert not reorganizer.placement_feasible(160, bounds)
        report = reorganizer.make_room(160, bounds)
        assert report.success
        assert report.blocks_moved > 0
        # And the placement genuinely works now.
        assert reorganizer.placement_feasible(160, bounds)

    def test_migrated_strands_stay_consistent(self, msm, drive, clip):
        survivors = fragment(msm, clip)
        reorganizer = Reorganizer(msm)
        reorganizer.make_room(160, tight_bounds(drive))
        for strand in survivors:
            strand.verify_against_index()
            # Gaps still honour the strand's own policy bounds.
            slots = strand.slots()
            for a, b in zip(slots, slots[1:]):
                gap = drive.access_gap(a, b)
                assert strand.scattering_lower - 1e-12 <= gap
                assert gap <= strand.scattering_upper + 1e-12

    def test_migration_preserves_playback_content(
        self, msm, drive, clip, profile
    ):
        """Reorganization is invisible to readers: tokens unchanged."""
        mrs = MultimediaRopeServer(msm)
        survivors = fragment(msm, clip)
        strand = survivors[0]
        rope_id = mrs.adopt_strands("u", video_strand_id=strand.strand_id)
        before = mrs.playback_plan(
            mrs.play("u", rope_id, media=Media.VIDEO)
        ).tokens()
        Reorganizer(msm).make_room(160, tight_bounds(drive))
        after = mrs.playback_plan(
            mrs.play("u", rope_id, media=Media.VIDEO)
        ).tokens()
        assert before == after

    def test_free_space_conserved(self, msm, drive, clip):
        fragment(msm, clip)
        free_before = msm.freemap.free_count
        Reorganizer(msm).make_room(160, tight_bounds(drive))
        assert msm.freemap.free_count == free_before


class TestRelocatePrimitive:
    def test_relocate_updates_index(self, msm, clip):
        strand = msm.store_video_strand(clip)
        old_slot = strand.slot_of(0)
        new_slot = msm.freemap.free_slots()[-1]
        msm.freemap.allocate(new_slot)
        msm.freemap.release(old_slot)
        strand.relocate_block(0, new_slot)
        assert strand.slot_of(0) == new_slot
        entry = strand.index.lookup(0)
        assert entry.sector == new_slot * strand.sectors_per_block
        strand.verify_against_index()

    def test_relocate_silence_rejected(self, msm, profile, rng):
        from repro.media.audio import generate_talk_spurts
        chunks = generate_talk_spurts(profile.audio, 20.0, 0.6, rng)
        strand = msm.store_audio_strand(chunks)
        silent = next(
            n for n in range(strand.block_count)
            if strand.slot_of(n) is None
        )
        with pytest.raises(ParameterError):
            strand.relocate_block(silent, 5)
