"""Persistence round-trips for heterogeneous and audio strands."""

import pytest

from repro.config import TESTBED_1991
from repro.disk import build_drive
from repro.fs import MultimediaStorageManager
from repro.fs.blocks import BlockKind
from repro.media.audio import generate_talk_spurts
from repro.media.frames import frames_for_duration
from repro.rope import MultimediaRopeServer, dump_image, load_image


def fresh_pair():
    profile = TESTBED_1991
    msm = MultimediaStorageManager(
        build_drive(), profile.video, profile.audio,
        profile.video_device, profile.audio_device,
    )
    return msm, MultimediaRopeServer(msm)


class TestMixedStrandPersistence:
    def test_heterogeneous_blocks_round_trip(self, profile, rng):
        msm, mrs = fresh_pair()
        frames = frames_for_duration(profile.video, 4.0, source="het")
        chunks = generate_talk_spurts(profile.audio, 4.0, 0.2, rng)
        strand = msm.store_mixed_strand(frames, chunks)
        image = dump_image(msm)
        msm2, _ = fresh_pair()
        load_image(image, msm2)
        restored = msm2.get_strand(strand.strand_id)
        assert restored.kind is BlockKind.MIXED
        block = restored.block_at(0)
        assert block.frame_count >= 1
        assert block.sample_count >= 1
        assert block.audio.average_energy == pytest.approx(
            strand.block_at(0).audio.average_energy
        )

    def test_silence_holders_round_trip(self, profile, rng):
        msm, mrs = fresh_pair()
        chunks = generate_talk_spurts(profile.audio, 20.0, 0.6, rng)
        strand = msm.store_audio_strand(chunks)
        silent_blocks = [
            n for n in range(strand.block_count)
            if strand.slot_of(n) is None
        ]
        assert silent_blocks
        image = dump_image(msm)
        msm2, _ = fresh_pair()
        load_image(image, msm2)
        restored = msm2.get_strand(strand.strand_id)
        for n in silent_blocks:
            assert restored.slot_of(n) is None
            assert restored.index.lookup(n) is None
            assert restored.units_of(n) == strand.units_of(n)
        assert restored.duration == pytest.approx(strand.duration)

    def test_scattering_bounds_round_trip(self, profile):
        msm, mrs = fresh_pair()
        frames = frames_for_duration(profile.video, 3.0, source="sc")
        strand = msm.store_video_strand(frames)
        image = dump_image(msm)
        msm2, _ = fresh_pair()
        load_image(image, msm2)
        restored = msm2.get_strand(strand.strand_id)
        assert restored.scattering_lower == strand.scattering_lower
        assert restored.scattering_upper == strand.scattering_upper
