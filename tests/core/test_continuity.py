"""Unit tests for the continuity equations (Eqs. 1-6)."""

import pytest

from repro.core import continuity
from repro.core.buffering import buffers_for_average_continuity
from repro.core.continuity import Architecture
from repro.core.symbols import (
    BlockModel,
    DiskParameters,
    DisplayDeviceParameters,
)
from repro.errors import InfeasibleError, ParameterError


@pytest.fixture
def disk():
    return DiskParameters(
        transfer_rate=10e6, seek_max=0.030, seek_avg=0.018, seek_track=0.005
    )


@pytest.fixture
def device():
    return DisplayDeviceParameters(display_rate=16e6, buffer_frames=8)


@pytest.fixture
def block():
    # 4 frames x 65536 bits at 30 fps: playback 133.3 ms, transfer 26.2 ms.
    return BlockModel(unit_rate=30.0, unit_size=65536.0, granularity=4)


class TestEquationForms:
    """Each slack function must equal its hand-expanded paper formula."""

    def test_eq1_sequential(self, block, disk, device):
        l_ds = 0.02
        expected = (4 / 30) - (
            l_ds + 4 * 65536 / 10e6 + 4 * 65536 / 16e6
        )
        assert continuity.sequential_slack(
            block, disk, device, l_ds
        ) == pytest.approx(expected)

    def test_eq2_pipelined(self, block, disk):
        l_ds = 0.02
        expected = (4 / 30) - (l_ds + 4 * 65536 / 10e6)
        assert continuity.pipelined_slack(block, disk, l_ds) == (
            pytest.approx(expected)
        )

    def test_eq3_concurrent(self, block, disk):
        l_ds = 0.02
        p = 4
        expected = (p - 1) * (4 / 30) - (l_ds + 4 * 65536 / 10e6)
        assert continuity.concurrent_slack(block, disk, l_ds, p) == (
            pytest.approx(expected)
        )

    def test_concurrent_p1_never_feasible_with_positive_access(
        self, block, disk
    ):
        assert continuity.concurrent_slack(block, disk, 0.0, 1) < 0

    def test_concurrent_rejects_p_zero(self, block, disk):
        with pytest.raises(ParameterError):
            continuity.concurrent_slack(block, disk, 0.0, 0)


class TestOrdering:
    """Pipelined tolerates more than sequential; concurrency helps more."""

    def test_pipelined_bound_exceeds_sequential(self, block, disk, device):
        sequential = continuity.max_scattering(
            Architecture.SEQUENTIAL, block, disk, device
        )
        pipelined = continuity.max_scattering(
            Architecture.PIPELINED, block, disk, device
        )
        assert pipelined > sequential

    def test_concurrent_bound_grows_with_p(self, block, disk, device):
        bounds = [
            continuity.max_scattering(
                Architecture.CONCURRENT, block, disk, device, p
            )
            for p in (2, 3, 4)
        ]
        assert bounds == sorted(bounds)
        assert bounds[0] < bounds[-1]

    def test_slack_decreases_with_scattering(self, block, disk, device):
        slacks = [
            continuity.slack(
                Architecture.PIPELINED, block, disk, device, l_ds
            )
            for l_ds in (0.0, 0.01, 0.05, 0.1)
        ]
        assert slacks == sorted(slacks, reverse=True)


class TestMaxScattering:
    def test_bound_is_exactly_zero_slack(self, block, disk, device):
        for architecture in (
            Architecture.SEQUENTIAL, Architecture.PIPELINED
        ):
            bound = continuity.max_scattering(
                architecture, block, disk, device
            )
            assert continuity.slack(
                architecture, block, disk, device, bound
            ) == pytest.approx(0.0, abs=1e-12)

    def test_infeasible_raises(self, disk, device):
        # One HDTV-sized frame per block at 60 fps cannot stream at 10 Mbit/s.
        monster = BlockModel(unit_rate=60.0, unit_size=4e7, granularity=1)
        with pytest.raises(InfeasibleError):
            continuity.max_scattering(
                Architecture.PIPELINED, monster, disk, device
            )

    def test_is_continuous_is_a_nonnegative_slack(self, block, disk, device):
        bound = continuity.max_scattering(
            Architecture.PIPELINED, block, disk, device
        )
        verdicts = []
        for l_ds in (0.0, bound, 1.01 * bound):
            args = (Architecture.PIPELINED, block, disk, device, l_ds)
            verdicts.append(continuity.is_continuous(*args))
            assert verdicts[-1] == (continuity.slack(*args) >= 0.0)
        assert verdicts[0] and not verdicts[-1]


class TestMinConcurrency:
    def test_min_concurrency_is_sufficient(self, block, disk, device):
        l_ds = 0.25  # far beyond single-head bounds
        p = continuity.min_concurrency(block, disk, l_ds)
        assert continuity.concurrent_slack(block, disk, l_ds, p) >= 0
        if p > 2:
            assert continuity.concurrent_slack(block, disk, l_ds, p - 1) < 0


class TestMinGranularity:
    def test_result_is_feasible_and_tight(self, disk, device):
        block = BlockModel(unit_rate=30.0, unit_size=65536.0, granularity=1)
        l_ds = 0.05
        eta = continuity.min_granularity(
            Architecture.PIPELINED, block, disk, device, l_ds
        )
        sized = block.with_granularity(eta)
        assert continuity.pipelined_slack(sized, disk, l_ds) >= 0
        if eta > 1:
            smaller = block.with_granularity(eta - 1)
            assert continuity.pipelined_slack(smaller, disk, l_ds) < 0

    def test_infeasible_per_unit_budget_raises(self, device):
        slow = DiskParameters(
            transfer_rate=1e5, seek_max=0.03, seek_avg=0.02, seek_track=0.005
        )
        block = BlockModel(unit_rate=30.0, unit_size=65536.0, granularity=1)
        with pytest.raises(InfeasibleError):
            continuity.min_granularity(
                Architecture.PIPELINED, block, slow, device, 0.01
            )


class TestMixedMedia:
    @pytest.fixture
    def audio_block(self):
        # 2048 samples x 8 bits at 8 kHz: 256 ms blocks.
        return BlockModel(unit_rate=8000.0, unit_size=8.0, granularity=2048)

    def test_heterogeneous_dominates_homogeneous(
        self, block, audio_block, disk
    ):
        homogeneous = continuity.max_scattering_mixed(
            block, audio_block, disk, heterogeneous=False
        )
        heterogeneous = continuity.max_scattering_mixed(
            block, audio_block, disk, heterogeneous=True
        )
        # One positioning delay per period beats n+1 of them.
        assert heterogeneous > homogeneous

    def test_eq5_reduction_when_durations_match(self, disk):
        # Audio block sized to exactly one video block duration (n = 1):
        # 25 fps, 4-frame blocks -> 0.16 s -> exactly 1280 samples at 8 kHz.
        video = BlockModel(unit_rate=25.0, unit_size=65536.0, granularity=4)
        audio = BlockModel(unit_rate=8000.0, unit_size=8.0, granularity=1280)
        l_ds = 0.01
        expected = video.playback_duration - (
            2 * l_ds + (video.block_bits + audio.block_bits) / 10e6
        )
        assert continuity.mixed_homogeneous_slack(
            video, audio, disk, l_ds
        ) == pytest.approx(expected, rel=1e-6)

    def test_eq6_single_gap(self, disk):
        video = BlockModel(unit_rate=25.0, unit_size=65536.0, granularity=4)
        audio = BlockModel(unit_rate=8000.0, unit_size=8.0, granularity=1280)
        l_ds = 0.01
        expected = video.playback_duration - (
            l_ds + (video.block_bits + audio.block_bits) / 10e6
        )
        assert continuity.mixed_heterogeneous_slack(
            video, audio, disk, l_ds
        ) == pytest.approx(expected, rel=1e-6)

    def test_mixed_infeasible_raises(self, audio_block, device):
        slow = DiskParameters(
            transfer_rate=1e6, seek_max=0.03, seek_avg=0.02, seek_track=0.005
        )
        video = BlockModel(unit_rate=30.0, unit_size=65536.0, granularity=4)
        with pytest.raises(InfeasibleError):
            continuity.max_scattering_mixed(
                video, audio_block, slow, heterogeneous=True
            )


class TestThroughputAndBuffers:
    def test_effective_throughput_hdtv_example(self):
        # 100 heads, 10 ms access, 4 KB blocks, 80 Mbit/s per head.
        disk = DiskParameters(
            transfer_rate=80e6, seek_max=0.010, seek_avg=0.010,
            seek_track=0.001, heads=100,
        )
        block_bits = 4 * 1024 * 8
        throughput = continuity.effective_throughput(
            block_bits, disk, 0.010
        )
        assert throughput == pytest.approx(0.315e9, rel=0.02)

    def test_throughput_improves_with_smaller_gap(self, disk):
        tight = continuity.effective_throughput(1e6, disk, 0.001)
        loose = continuity.effective_throughput(1e6, disk, 0.030)
        assert tight > loose

    def test_buffer_counts(self):
        """§3.3.2's strict-continuity 1 / 2 / p buffers are the k = 1
        case of the average-continuity counts."""
        assert buffers_for_average_continuity(Architecture.SEQUENTIAL, 1) == 1
        assert buffers_for_average_continuity(Architecture.PIPELINED, 1) == 2
        assert buffers_for_average_continuity(
            Architecture.CONCURRENT, 1, p=7
        ) == 7
