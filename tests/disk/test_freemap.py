"""Unit tests for the free-space map."""

import random

import pytest

from repro.disk.freemap import FreeMap
from repro.errors import AllocationError, DiskFullError, ParameterError


class TestBasics:
    def test_new_map_all_free(self):
        fm = FreeMap(100)
        assert fm.free_count == 100
        assert fm.used_count == 0
        assert fm.occupancy == 0.0
        assert all(fm.is_free(s) for s in range(100))

    def test_allocate_release_cycle(self):
        fm = FreeMap(10)
        fm.allocate(3)
        assert not fm.is_free(3)
        assert fm.free_count == 9
        assert fm.occupancy == pytest.approx(0.1)
        fm.release(3)
        assert fm.is_free(3)
        assert fm.free_count == 10

    def test_double_allocate_rejected(self):
        fm = FreeMap(10)
        fm.allocate(3)
        with pytest.raises(AllocationError):
            fm.allocate(3)

    def test_double_release_rejected(self):
        fm = FreeMap(10)
        with pytest.raises(AllocationError):
            fm.release(3)

    def test_out_of_range_rejected(self):
        fm = FreeMap(10)
        with pytest.raises(ParameterError):
            fm.allocate(10)
        with pytest.raises(ParameterError):
            fm.is_free(-1)

    def test_rejects_empty_map(self):
        with pytest.raises(ParameterError):
            FreeMap(0)


class TestWindows:
    def test_first_free_in_window(self):
        fm = FreeMap(10)
        for s in (0, 1, 2):
            fm.allocate(s)
        assert fm.first_free_in_window(0, 10) == 3
        assert fm.first_free_in_window(0, 3) is None

    def test_window_clamped(self):
        fm = FreeMap(10)
        assert fm.first_free_in_window(-5, 100) == 0
        # A negative stop is an empty window, not a count from the end.
        assert fm.first_free_in_window(0, -1) is None

    def test_inverted_window_empty(self):
        fm = FreeMap(10)
        assert fm.first_free_in_window(8, 3) is None

    def test_first_free_in_window_walks_ascending(self):
        fm = FreeMap(10)
        fm.allocate(4)
        slots, slot = [], fm.first_free_in_window(2, 8)
        while slot is not None:
            slots.append(slot)
            slot = fm.first_free_in_window(slot + 1, 8)
        assert slots == [2, 3, 5, 6, 7]


class TestRuns:
    def test_find_run(self):
        fm = FreeMap(10)
        fm.allocate(2)
        assert fm.find_run(2) == 0
        assert fm.find_run(3) == 3
        assert fm.find_run(7) == 3
        assert fm.find_run(8) is None

    def test_find_run_with_start(self):
        fm = FreeMap(10)
        assert fm.find_run(3, start=5) == 5

    def test_find_run_rejects_zero(self):
        fm = FreeMap(10)
        with pytest.raises(ParameterError):
            fm.find_run(0)


class TestRandomFree:
    def test_returns_free_slot(self):
        fm = FreeMap(50)
        rng = random.Random(7)
        for s in range(0, 50, 2):
            fm.allocate(s)
        for _ in range(20):
            slot = fm.random_free(rng)
            assert fm.is_free(slot)

    def test_nearly_full_map_falls_back_to_scan(self):
        fm = FreeMap(100)
        for s in range(99):
            fm.allocate(s)
        rng = random.Random(7)
        assert fm.random_free(rng) == 99

    def test_full_map_raises(self):
        fm = FreeMap(3)
        for s in range(3):
            fm.allocate(s)
        with pytest.raises(DiskFullError):
            fm.random_free(random.Random(1))


class TestListings:
    def test_free_and_used_slots(self):
        fm = FreeMap(6)
        for s in (1, 4):
            fm.allocate(s)
        assert fm.used_slots() == [1, 4]
        assert fm.free_slots() == [0, 2, 3, 5]
