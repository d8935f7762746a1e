"""Unit tests for striped storage on multi-head arrays."""

import pytest

from repro.config import TESTBED_1991
from repro.core import continuity
from repro.core.continuity import Architecture
from repro.core.symbols import video_block_model
from repro.disk import build_array
from repro.errors import ParameterError, UnknownStrandError
from repro.fs.striped import StripedStorageManager
from repro.media.frames import frames_for_duration
from repro.service import play_single


@pytest.fixture
def array():
    return build_array(heads=4)


@pytest.fixture
def striped(array, profile):
    return StripedStorageManager(
        array, profile.video, profile.video_device, granularity=2
    )


@pytest.fixture
def frames(profile):
    return frames_for_duration(profile.video, 8.0, source="striped")


class TestStorage:
    def test_round_robin_striping(self, striped, frames):
        strand = striped.store_video_strand(frames)
        members = [a.drive_index for a in strand.addresses]
        assert members[:8] == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_per_member_scattering_bound(self, striped, array, frames):
        strand = striped.store_video_strand(frames)
        per_member = {}
        for address in strand.addresses:
            per_member.setdefault(address.drive_index, []).append(
                address.slot
            )
        for member_index, slots in per_member.items():
            member = array.member(member_index)
            for a, b in zip(slots, slots[1:]):
                gap = member.access_gap(a, b)
                assert gap <= striped.scattering_upper + 1e-12

    def test_concurrent_bound_wider_than_pipelined(self, striped, profile):
        block = video_block_model(profile.video, 2)
        single = build_array(heads=1)
        pipelined = continuity.max_scattering(
            Architecture.PIPELINED, block,
            single.member(0).parameters(), profile.video_device,
        )
        assert striped.scattering_upper > pipelined

    def test_tokens_preserved(self, striped, frames):
        strand = striped.store_video_strand(frames)
        flattened = [t for block in strand.tokens for t in block]
        assert flattened == [f.token for f in frames]

    def test_delete_releases_all_members(self, striped, frames):
        strand = striped.store_video_strand(frames)
        assert striped.occupancy() > 0
        striped.delete_strand(strand.strand_id)
        assert striped.occupancy() == 0.0
        with pytest.raises(UnknownStrandError):
            striped.get_strand(strand.strand_id)

    def test_block_too_big_rejected(self, array, profile):
        with pytest.raises(ParameterError):
            StripedStorageManager(
                array, profile.video, profile.video_device, granularity=64
            )

    def test_empty_strand_rejected(self, striped):
        with pytest.raises(ParameterError):
            striped.store_video_strand([])


class TestConcurrentPlayback:
    def test_striped_strand_plays_continuously(
        self, striped, array, frames
    ):
        strand = striped.store_video_strand(frames)
        fetches = striped.playback_fetches(strand)
        metrics = play_single(fetches, array, read_ahead=3).metrics
        assert metrics.continuous
        assert metrics.blocks_delivered == strand.block_count

    def test_token_round_trip_through_fetches(self, striped, frames):
        strand = striped.store_video_strand(frames)
        fetches = striped.playback_fetches(strand)
        tokens = [t for fetch in fetches for t in fetch.tokens]
        assert tokens == [f.token for f in frames]

    def test_durations_cover_clip(self, striped, frames):
        strand = striped.store_video_strand(frames)
        fetches = striped.playback_fetches(strand)
        assert sum(f.duration for f in fetches) == pytest.approx(8.0)

    def test_striping_survives_per_member_infeasibility(self, profile):
        """A stream too fast for one member plays on the array.

        45 fps at granularity 1 with forced wide scattering would glitch
        on a single drive (see E4); striped over 4 heads the per-member
        budget is (p−1) periods and playback is clean.
        """
        from repro.core.symbols import VideoStream

        fast = VideoStream(frame_rate=45.0, frame_size=profile.video.frame_size)
        array = build_array(heads=4)
        manager = StripedStorageManager(
            array, fast, profile.video_device, granularity=1
        )
        frames = frames_for_duration(fast, 4.0, source="fast")
        strand = manager.store_video_strand(frames)
        metrics = play_single(
            manager.playback_fetches(strand), array, read_ahead=3
        ).metrics
        assert metrics.continuous
