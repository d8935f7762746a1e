"""Unit tests for the §6.2 variable-rate compression extension."""

import pytest

from repro.config import TESTBED_1991
from repro.core import variable_rate as vr
from repro.core.symbols import DiskParameters
from repro.errors import InfeasibleError, ParameterError
from repro.media.codec import DifferencingCodec, FixedRateCodec


@pytest.fixture
def disk():
    return DiskParameters(
        transfer_rate=10e6, seek_max=0.040, seek_avg=0.018, seek_track=0.005
    )


@pytest.fixture
def codec():
    return DifferencingCodec(key_ratio=2.0, diff_ratio=20.0, group_size=10)


@pytest.fixture
def stream():
    return TESTBED_1991.video


class TestBlockSizeProfile:
    def test_fixed_rate_has_no_variability(self, stream, disk):
        profile = vr.block_size_profile(stream, FixedRateCodec(1.0), 4)
        assert profile.min_bits == profile.mean_bits == profile.max_bits
        assert profile.max_bits / profile.mean_bits == pytest.approx(1.0)

    def test_differencing_varies(self, stream, codec):
        profile = vr.block_size_profile(stream, codec, 1)
        assert profile.max_bits > profile.mean_bits > profile.min_bits
        # Key frame is 10x a diff frame for this codec.
        assert profile.max_bits == pytest.approx(10 * profile.min_bits)

    def test_group_covers_lcm(self, stream, codec):
        # granularity 4 and group 10 -> 20 frames -> 5 blocks per cycle.
        profile = vr.block_size_profile(stream, codec, 4)
        assert profile.group_blocks == 5

    def test_mean_matches_codec_mean(self, stream, codec):
        profile = vr.block_size_profile(stream, codec, 4)
        raw = stream.frame_size * codec.nominal_ratio
        # One size group of 10 frames: 1 key frame and 9 difference ones.
        frame = (raw / codec.key_ratio + 9 * raw / codec.diff_ratio) / 10
        assert profile.mean_bits == pytest.approx(4 * frame)

    def test_inconsistent_profile_rejected(self):
        with pytest.raises(ParameterError):
            vr.BlockSizeProfile(
                granularity=1, min_bits=10, mean_bits=5, max_bits=20,
                group_blocks=1,
            )


class TestBounds:
    def test_average_at_least_strict(self, stream, codec, disk):
        profile = vr.block_size_profile(stream, codec, 4)
        strict = vr.strict_scattering_bound(stream, profile, disk)
        average = vr.average_scattering_bound(stream, profile, disk)
        assert average >= strict

    def test_strict_equals_cbr_at_granularity_one(self, stream, codec, disk):
        """η=1: the worst block IS a key frame = the CBR frame."""
        comparison = vr.vbr_gain(stream, codec, 1, disk)
        assert comparison.vbr_strict_bound == pytest.approx(
            comparison.cbr_bound
        )

    def test_vbr_average_beats_cbr(self, stream, codec, disk):
        """The §6.2 claim: smaller mean frames yield better bounds."""
        for granularity in (1, 2, 4):
            comparison = vr.vbr_gain(stream, codec, granularity, disk)
            assert comparison.vbr_average_bound > comparison.cbr_bound
            assert comparison.gain > 1.0

    def test_fixed_codec_gain_is_one(self, stream, disk):
        comparison = vr.vbr_gain(stream, FixedRateCodec(1.0), 4, disk)
        assert comparison.gain == pytest.approx(1.0)

    def test_read_ahead_is_group(self, stream, codec, disk):
        comparison = vr.vbr_gain(stream, codec, 4, disk)
        assert vr.group_read_ahead(comparison.profile) == 5

    def test_infeasible_stream_raises(self, codec):
        slow = DiskParameters(
            transfer_rate=1e5, seek_max=0.04, seek_avg=0.018,
            seek_track=0.005,
        )
        with pytest.raises(InfeasibleError):
            vr.vbr_gain(TESTBED_1991.video, codec, 4, slow)
