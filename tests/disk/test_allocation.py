"""Unit tests for the three §3 allocation disciplines."""

import math
import random

import pytest

from repro.disk import (
    ConstrainedScatterAllocator,
    ContiguousAllocator,
    FreeMap,
    RandomAllocator,
    ScatterBounds,
    build_drive,
)
from repro.disk.drive import SimulatedDrive
from repro.disk.factory import TESTBED_DRIVE
from repro.disk.seek import LinearSeek, SqrtAffineSeek
from repro.errors import (
    AllocationError,
    DiskFullError,
    ParameterError,
    ScatteringError,
)


@pytest.fixture
def drive():
    return build_drive()


@pytest.fixture
def freemap(drive):
    return FreeMap(drive.slots)


@pytest.fixture
def bounds(drive):
    rotation = drive.rotation.average_latency
    return ScatterBounds(lower=0.0, upper=rotation + 0.010)


class TestScatterBounds:
    def test_admits(self):
        bounds = ScatterBounds(lower=0.005, upper=0.020)
        assert bounds.admits(0.005)
        assert bounds.admits(0.020)
        assert not bounds.admits(0.004)
        assert not bounds.admits(0.021)

    def test_rejects_inverted(self):
        with pytest.raises(ParameterError):
            ScatterBounds(lower=0.02, upper=0.01)

    def test_rejects_negative_lower(self):
        with pytest.raises(ParameterError):
            ScatterBounds(lower=-0.01, upper=0.01)


class TestConstrainedScatter:
    def test_gaps_respect_bounds(self, drive, freemap, bounds):
        allocator = ConstrainedScatterAllocator(drive, freemap, bounds)
        slots = allocator.allocate_strand(100)
        assert len(slots) == 100
        assert len(set(slots)) == 100
        for a, b in zip(slots, slots[1:]):
            assert bounds.admits(drive.access_gap(a, b))

    def test_lower_bound_enforced(self, drive, freemap):
        rotation = drive.rotation.average_latency
        # Require a real seek between consecutive blocks.
        bounds = ScatterBounds(
            lower=rotation + 0.005, upper=rotation + 0.015
        )
        allocator = ConstrainedScatterAllocator(drive, freemap, bounds)
        slots = allocator.allocate_strand(50)
        for a, b in zip(slots, slots[1:]):
            gap = drive.access_gap(a, b)
            assert gap >= bounds.lower - 1e-12

    def test_upper_below_rotation_rejected(self, drive, freemap):
        rotation = drive.rotation.average_latency
        with pytest.raises(ScatteringError):
            ConstrainedScatterAllocator(
                drive, freemap, ScatterBounds(0.0, rotation * 0.5)
            )

    def test_respects_hint(self, drive, freemap, bounds):
        allocator = ConstrainedScatterAllocator(drive, freemap, bounds)
        slot = allocator.allocate_first(hint=500)
        assert slot == 500

    def test_hint_wraps_when_tail_full(self, drive, freemap, bounds):
        allocator = ConstrainedScatterAllocator(drive, freemap, bounds)
        for s in range(500, drive.slots):
            freemap.allocate(s)
        slot = allocator.allocate_first(hint=500)
        assert slot == 0

    def test_crowded_window_raises(self, drive, freemap, bounds):
        allocator = ConstrainedScatterAllocator(drive, freemap, bounds)
        first = allocator.allocate_first()
        # Fill every slot the distance window could reach.
        window = allocator.distance_window
        max_cyl = drive.cylinder_of(first) + window.stop + 2
        for slot in range(drive.slots):
            if freemap.is_free(slot) and drive.cylinder_of(slot) <= max_cyl:
                freemap.allocate(slot)
        with pytest.raises(ScatteringError):
            allocator.allocate_after(first)

    def test_failed_strand_releases_slots(self, drive, freemap, bounds):
        allocator = ConstrainedScatterAllocator(drive, freemap, bounds)
        # Leave only 3 usable slots near the start; a 10-block strand must
        # fail and roll back.
        for slot in range(3, drive.slots):
            freemap.allocate(slot)
        before = freemap.free_count
        with pytest.raises((ScatteringError, DiskFullError)):
            allocator.allocate_strand(10)
        assert freemap.free_count == before

    def test_full_disk_raises_disk_full(self, drive, freemap, bounds):
        for slot in range(drive.slots):
            freemap.allocate(slot)
        allocator = ConstrainedScatterAllocator(drive, freemap, bounds)
        with pytest.raises(DiskFullError):
            allocator.allocate_first()


class TestUnboundedWindow:
    """``ScatterBounds(0, inf)`` is valid — it is a strand's default upper
    bound, and a placer built on a strand's bounds (``relocate_strand``
    builds one) must take it.  Both closed-form seek inverses used to
    raise ``OverflowError`` on it."""

    @pytest.mark.parametrize(
        "seek", [LinearSeek(0.003, 2e-5), SqrtAffineSeek(0.003, 1e-3)],
        ids=["linear", "sqrt"],
    )
    def test_every_distance_is_admitted(self, seek):
        drive = SimulatedDrive(
            TESTBED_DRIVE.geometry(), seek, TESTBED_DRIVE.rotation(),
            TESTBED_DRIVE.transfer_rate, sectors_per_block=64,
        )
        cylinders = drive.geometry.cylinders
        assert seek.max_distance_within(math.inf, cylinders) == cylinders - 1
        allocator = ConstrainedScatterAllocator(
            drive, FreeMap(drive.slots), ScatterBounds(0.0, math.inf)
        )
        assert allocator.distance_window == range(0, cylinders)
        assert len(set(allocator.allocate_strand(50, hint=3000))) == 50


class TestRandomAllocator:
    def test_allocates_unique_free_slots(self, drive, freemap):
        allocator = RandomAllocator(drive, freemap, random.Random(3))
        slots = allocator.allocate_strand(200)
        assert len(set(slots)) == 200

    def test_deterministic_given_seed(self, drive):
        def run():
            freemap = FreeMap(drive.slots)
            allocator = RandomAllocator(drive, freemap, random.Random(9))
            return allocator.allocate_strand(50)
        assert run() == run()

    def test_requires_rng(self, drive, freemap):
        with pytest.raises(ParameterError):
            RandomAllocator(drive, freemap, None)


class TestContiguousAllocator:
    def test_run_is_consecutive(self, drive, freemap):
        allocator = ContiguousAllocator(drive, freemap)
        slots = allocator.allocate_strand(40)
        assert slots == list(range(slots[0], slots[0] + 40))

    def test_fragmentation_failure(self, drive, freemap):
        allocator = ContiguousAllocator(drive, freemap)
        # Fragment the disk: allocate every other slot.
        for slot in range(0, drive.slots, 2):
            freemap.allocate(slot)
        with pytest.raises(AllocationError) as excinfo:
            allocator.allocate_strand(2)
        assert "fragment" in str(excinfo.value)

    def test_disk_full_distinguished_from_fragmentation(
        self, drive, freemap
    ):
        allocator = ContiguousAllocator(drive, freemap)
        for slot in range(drive.slots - 1):
            freemap.allocate(slot)
        with pytest.raises(DiskFullError):
            allocator.allocate_strand(5)

    def test_allocate_after_requires_adjacency(self, drive, freemap):
        allocator = ContiguousAllocator(drive, freemap)
        first = allocator.allocate_first()
        freemap.allocate(first + 1)
        with pytest.raises(AllocationError):
            allocator.allocate_after(first)


class TestAllocatorValidation:
    def test_mismatched_freemap_rejected(self, drive):
        small = FreeMap(10)
        with pytest.raises(ParameterError):
            ContiguousAllocator(drive, small)

    def test_zero_count_rejected(self, drive, freemap):
        allocator = ContiguousAllocator(drive, freemap)
        with pytest.raises(ParameterError):
            allocator.allocate_strand(0)
