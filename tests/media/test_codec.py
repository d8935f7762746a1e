"""Unit tests for compression models: a codec answers a capture's whole
size column in one call."""

import pytest

from repro.errors import ParameterError
from repro.media.codec import DifferencingCodec, FixedRateCodec


class TestFixedRateCodec:
    def test_compression(self):
        codec = FixedRateCodec(ratio=18.0)
        sizes = codec.compressed_sizes(1800.0, 100)
        assert len(sizes) == 100
        assert sizes[0] == sizes[99] == pytest.approx(100.0)

    def test_mean_equals_every_frame(self):
        codec = FixedRateCodec(ratio=4.0)
        assert set(codec.compressed_sizes(400.0, 7)) == {100.0}
        assert codec.compressed_sizes(400.0, 0) == []

    def test_rejects_expansion(self):
        with pytest.raises(ParameterError):
            FixedRateCodec(ratio=0.5)

    def test_rejects_bad_raw_size(self):
        codec = FixedRateCodec(ratio=2.0)
        with pytest.raises(ParameterError, match="raw_bits must be positive"):
            codec.compressed_sizes(0.0, 3)


class TestDifferencingCodec:
    def test_key_frames_on_group_boundary(self):
        codec = DifferencingCodec(key_ratio=2.0, diff_ratio=20.0, group_size=10)
        sizes = codec.compressed_sizes(2000.0, 23)
        assert len(sizes) == 23
        assert [i for i, size in enumerate(sizes) if size == 1000.0] == [
            0, 10, 20
        ]
        assert sizes[5] == pytest.approx(100.0)

    def test_mean_between_key_and_diff(self):
        codec = DifferencingCodec(key_ratio=2.0, diff_ratio=20.0, group_size=10)
        mean = sum(codec.compressed_sizes(2000.0, 10)) / 10
        assert 100.0 < mean < 1000.0
        # Exactly (1 key + 9 diffs) / 10.
        assert mean == pytest.approx((1000.0 + 9 * 100.0) / 10)

    def test_mean_below_fixed_rate_at_key_ratio(self):
        """§6.2: differencing yields smaller average frames."""
        fixed = FixedRateCodec(ratio=2.0)
        diff = DifferencingCodec(key_ratio=2.0, diff_ratio=20.0)
        raw = 2000.0
        assert sum(diff.compressed_sizes(raw, 10)) < sum(
            fixed.compressed_sizes(raw, 10)
        )

    def test_deterministic(self):
        codec = DifferencingCodec(key_ratio=2.0, diff_ratio=20.0)
        assert codec.compressed_sizes(1000.0, 17) == (
            codec.compressed_sizes(1000.0, 17)
        )

    def test_a_shorter_column_is_a_prefix(self):
        codec = DifferencingCodec(key_ratio=2.0, diff_ratio=8.0, group_size=3)
        whole = codec.compressed_sizes(900.0, 12)
        assert [codec.compressed_sizes(900.0, n) for n in range(13)] == [
            whole[:n] for n in range(13)
        ]

    def test_rejects_diff_smaller_than_key(self):
        with pytest.raises(ParameterError):
            DifferencingCodec(key_ratio=10.0, diff_ratio=5.0)

    def test_rejects_bad_raw_size(self):
        codec = DifferencingCodec(key_ratio=2.0, diff_ratio=4.0)
        with pytest.raises(ParameterError, match="raw_bits must be positive"):
            codec.compressed_sizes(-1.0, 3)
