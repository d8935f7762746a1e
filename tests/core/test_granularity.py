"""Unit tests for §3.3.4 granularity and scattering derivation."""

import pytest

from repro.core import granularity as gran
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
        transfer_rate=10e6, seek_max=0.040, seek_avg=0.018, seek_track=0.005
    )


@pytest.fixture
def device():
    return DisplayDeviceParameters(display_rate=16e6, buffer_frames=8)


@pytest.fixture
def block():
    return BlockModel(unit_rate=30.0, unit_size=65536.0, granularity=1)


class TestGranularityRange:
    def test_sequential_uses_full_buffer(self, device):
        feasible = gran.granularity_range(Architecture.SEQUENTIAL, device)
        assert list(feasible) == list(range(1, 9))

    def test_pipelined_halves_buffer(self, device):
        feasible = gran.granularity_range(Architecture.PIPELINED, device)
        assert feasible[-1] == 4

    def test_concurrent_divides_by_p(self, device):
        feasible = gran.granularity_range(
            Architecture.CONCURRENT, device, p=4
        )
        assert feasible[-1] == 2

    def test_single_frame_buffer_forces_eta_one_sequential(self):
        tiny = DisplayDeviceParameters(display_rate=1e6, buffer_frames=1)
        feasible = gran.granularity_range(Architecture.SEQUENTIAL, tiny)
        assert list(feasible) == [1]

    def test_single_frame_buffer_infeasible_pipelined(self):
        tiny = DisplayDeviceParameters(display_rate=1e6, buffer_frames=1)
        with pytest.raises(InfeasibleError):
            gran.granularity_range(Architecture.PIPELINED, tiny)

    def test_max_granularity_is_range_top(self, device):
        assert gran.max_granularity(Architecture.PIPELINED, device) == 4


class TestScatteringLowerBound:
    def test_inverts_eq19(self, disk):
        # C_b = l_seek_max / (2 l_lower)  =>  l_lower = l_seek_max / (2 C_b)
        for budget in (1, 2, 4, 8):
            lower = gran.scattering_lower_bound(disk, budget)
            assert lower == pytest.approx(disk.seek_max / (2 * budget))

    def test_zero_budget_disables(self, disk):
        assert gran.scattering_lower_bound(disk, 0) == 0.0

    def test_negative_budget_rejected(self, disk):
        with pytest.raises(ParameterError):
            gran.scattering_lower_bound(disk, -1)

    def test_larger_budget_means_smaller_lower_bound(self, disk):
        assert gran.scattering_lower_bound(disk, 8) < (
            gran.scattering_lower_bound(disk, 2)
        )


class TestDerivePolicy:
    def test_default_uses_max_granularity(self, block, disk, device):
        policy = gran.derive_policy(block, disk, device)
        assert policy.granularity == 4  # pipelined, buffer 8

    def test_window_is_consistent(self, block, disk, device):
        policy = gran.derive_policy(block, disk, device, copy_budget=4)
        assert 0 < policy.scattering_lower < policy.scattering_upper
        assert policy.admits(policy.scattering_lower)
        assert policy.admits(policy.scattering_upper)
        assert not policy.admits(policy.scattering_upper * 1.01)

    def test_explicit_granularity_respected(self, block, disk, device):
        policy = gran.derive_policy(block, disk, device, granularity=2)
        assert policy.granularity == 2

    def test_granularity_outside_device_range_rejected(
        self, block, disk, device
    ):
        with pytest.raises(ParameterError):
            gran.derive_policy(block, disk, device, granularity=5)

    def test_larger_granularity_tolerates_more_scattering(
        self, block, disk, device
    ):
        small = gran.derive_policy(block, disk, device, granularity=1)
        large = gran.derive_policy(block, disk, device, granularity=4)
        assert large.scattering_upper > small.scattering_upper

    def test_impossible_copy_budget_raises(self, block, device):
        # A slow-seeking disk plus a tiny copy budget forces the lower
        # bound (l_seek_max / 2) above the continuity upper bound.
        sluggish = DiskParameters(
            transfer_rate=10e6, seek_max=0.2, seek_avg=0.018,
            seek_track=0.005,
        )
        with pytest.raises(InfeasibleError):
            gran.derive_policy(
                block, sluggish, device, granularity=1, copy_budget=1
            )

    def test_block_bits_match(self, block, disk, device):
        policy = gran.derive_policy(block, disk, device, granularity=3)
        assert policy.block_bits == pytest.approx(3 * 65536)


class TestPlacementPolicyValidation:
    def test_inverted_window_raises(self):
        with pytest.raises(InfeasibleError):
            gran.PlacementPolicy(
                granularity=1, block_bits=1000.0,
                scattering_lower=0.05, scattering_upper=0.01,
                architecture=Architecture.PIPELINED,
            )

    def test_negative_lower_rejected(self):
        with pytest.raises(ParameterError):
            gran.PlacementPolicy(
                granularity=1, block_bits=1000.0,
                scattering_lower=-0.01, scattering_upper=0.01,
                architecture=Architecture.PIPELINED,
            )
