"""Unit tests for unit helpers and the hardware profiles."""

import pytest

from repro import units
from repro.config import (
    FAST_ARRAY_1995,
    HDTV_2_5_GBIT,
    PROFILES,
    TESTBED_1991,
)


class TestSizeConversions:
    def test_bytes(self):
        assert units.bytes_(1) == 8

    def test_kilobytes_are_binary(self):
        assert units.kilobytes(4) == 4 * 1024 * 8

    def test_gigabits(self):
        assert units.gigabits(2.5) == 2.5e9


class TestRateAndTime:
    def test_audio_hardware_rate(self):
        # The prototype's 8 KByte/s digitizer.
        assert units.kilobytes_per_second(8) == 8 * 1024 * 8

    def test_milliseconds(self):
        assert units.milliseconds(28) == pytest.approx(0.028)


class TestFormatting:
    def test_format_bits_magnitudes(self):
        assert "Gbit" in units.format_bits(2.5e9)
        assert "Mbit" in units.format_bits(3e6)
        assert "Kbit" in units.format_bits(5e3)
        assert units.format_bits(12) == "12 bit"

    def test_format_rate_appends_per_second(self):
        assert units.format_rate(1e6).endswith("/s")

    def test_format_seconds_magnitudes(self):
        assert units.format_seconds(1.5).endswith(" s")
        assert "ms" in units.format_seconds(0.005)
        assert "µs" in units.format_seconds(5e-6)


class TestProfiles:
    def test_registry_contains_all(self):
        assert set(PROFILES) == {
            "testbed-1991", "hdtv-2.5gbit", "fast-array-1995"
        }

    def test_testbed_matches_paper_figures(self):
        # 30 fps NTSC video, 8 KByte/s audio (8000 x 8-bit samples).
        assert TESTBED_1991.video.frame_rate == 30.0
        assert TESTBED_1991.audio.sample_rate == 8000.0
        assert TESTBED_1991.audio.sample_size == 8.0

    def test_hdtv_demand_is_2_5_gbit(self):
        assert HDTV_2_5_GBIT.video.bit_rate == pytest.approx(2.5e9)
        assert HDTV_2_5_GBIT.disk.heads == 100

    def test_profiles_internally_consistent(self):
        for profile in PROFILES.values():
            disk = profile.disk
            assert disk.seek_track <= disk.seek_avg <= disk.seek_max
            assert profile.video.bit_rate > 0
            assert profile.audio.bit_rate > 0

    def test_fast_array_heads(self):
        assert FAST_ARRAY_1995.disk.heads == 4
