"""Unit tests for §4.2 editing copy bounds (Eqs. 19-20)."""

import math

import pytest

from repro.core import editing_bounds as eb
from repro.core.symbols import DiskParameters
from repro.errors import ParameterError


@pytest.fixture
def disk():
    return DiskParameters(
        transfer_rate=10e6, seek_max=0.040, seek_avg=0.018, seek_track=0.005
    )


class TestCopyBounds:
    def test_eq19_sparse(self):
        assert eb.copy_bound_sparse(0.040, 0.005) == math.ceil(
            0.040 / (2 * 0.005)
        )

    def test_eq20_dense(self):
        assert eb.copy_bound_dense(0.040, 0.005) == math.ceil(0.040 / 0.005)

    def test_dense_is_twice_sparse(self):
        # For exact divisions, Eq. 20 = 2 x Eq. 19.
        assert eb.copy_bound_dense(0.040, 0.005) == (
            2 * eb.copy_bound_sparse(0.040, 0.005)
        )

    def test_smaller_lower_bound_means_more_copies(self):
        assert eb.copy_bound_sparse(0.040, 0.002) > (
            eb.copy_bound_sparse(0.040, 0.010)
        )

    def test_zero_lower_bound_rejected(self):
        with pytest.raises(ParameterError):
            eb.copy_bound_sparse(0.040, 0.0)

    def test_negative_seek_rejected(self):
        with pytest.raises(ParameterError):
            eb.copy_bound_dense(-0.01, 0.005)


class TestOccupancySelection:
    def test_sparse_regime_below_threshold(self):
        assert eb.copy_bound(0.040, 0.005, occupancy=0.2) == (
            eb.copy_bound_sparse(0.040, 0.005)
        )

    def test_dense_regime_at_threshold(self):
        assert eb.copy_bound(
            0.040, 0.005, occupancy=eb.DENSE_OCCUPANCY_THRESHOLD
        ) == eb.copy_bound_dense(0.040, 0.005)

    def test_occupancy_out_of_range_rejected(self):
        with pytest.raises(ParameterError):
            eb.copy_bound(0.040, 0.005, occupancy=1.5)


class TestSeamRepairBound:
    def test_picks_minimum_side(self, disk):
        bound = eb.seam_repair_bound(
            disk,
            predecessor_scattering_lower=0.010,
            successor_scattering_lower=0.004,
            occupancy=0.1,
        )
        assert bound.from_predecessor == eb.copy_bound_sparse(
            disk.seek_max, 0.010
        )
        assert bound.from_successor == eb.copy_bound_sparse(
            disk.seek_max, 0.004
        )
        assert not bound.dense

    def test_dense_flag_set(self, disk):
        bound = eb.seam_repair_bound(disk, 0.005, 0.005, occupancy=0.9)
        assert bound.dense
        assert bound.from_predecessor == bound.from_successor == (
            eb.copy_bound_dense(disk.seek_max, 0.005)
        )
