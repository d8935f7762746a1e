"""Unit tests for the simulated drive."""

import pytest

from repro.disk import TESTBED_DRIVE, build_drive
from repro.disk.drive import SimulatedDrive
from repro.disk.geometry import DiskGeometry
from repro.disk.seek import LinearSeek, Rotation
from repro.errors import AddressError, ParameterError


@pytest.fixture
def drive():
    return build_drive()


class TestDerivedSizes:
    def test_block_bits(self, drive):
        assert drive.block_bits == 64 * 512 * 8

    def test_slots_match_geometry(self, drive):
        assert drive.slots == drive.geometry.slots(64)


class TestTiming:
    def test_transfer_time(self, drive):
        assert drive.transfer_time(drive.transfer_rate) == pytest.approx(1.0)

    def test_positioning_time_includes_rotation(self, drive):
        same_cylinder = drive.positioning_time(5, 5)
        assert same_cylinder == pytest.approx(
            drive.rotation.average_latency
        )

    def test_positioning_grows_with_distance(self, drive):
        near = drive.positioning_time(0, 10)
        far = drive.positioning_time(0, 1000)
        assert far > near

    def test_access_gap_symmetric(self, drive):
        assert drive.access_gap(10, 500) == pytest.approx(
            drive.access_gap(500, 10)
        )


class TestStatefulAccess:
    def test_read_moves_head(self, drive):
        target = drive.slots - 1
        drive.read_slot(target)
        assert drive.head_cylinder == drive.cylinder_of(target)

    def test_read_duration_decomposes(self, drive):
        drive.park(0)
        slot = drive.slots // 2
        distance = drive.cylinder_of(slot)
        expected = (
            drive.seek_model.seek_time(distance)
            + drive.rotation.average_latency
            + drive.transfer_time(drive.block_bits)
        )
        assert drive.read_slot(slot) == pytest.approx(expected)

    def test_partial_payload_cheaper(self, drive):
        drive.park(0)
        full = drive.read_slot(0)
        drive.park(0)
        partial = drive.read_slot(0, bits=drive.block_bits / 4)
        assert partial < full

    def test_write_timing_equals_read(self, drive):
        drive.park(0)
        read = drive.read_slot(100)
        drive.park(0)
        write = drive.write_slot(100)
        assert write == pytest.approx(read)

    def test_stats_accumulate(self, drive):
        drive.read_slot(0)
        drive.write_slot(drive.slots - 1)
        assert drive.stats.reads == 1
        assert drive.stats.writes == 1
        assert drive.stats.busy_time > 0
        assert drive.stats.seek_distance > 0

    def test_charged_accesses_count_doomed_attempts_too(self, drive):
        """A fault is only known once the access was tried: its time is
        charged although ``reads`` never counts it; a dead head fails
        fast and charges nothing."""
        from repro.errors import HeadFailureError, TransientReadError
        from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec

        drive.attach_injector(FaultInjector(FaultPlan([
            FaultSpec(FaultKind.TRANSIENT, slot=7),
            FaultSpec(FaultKind.HEAD_FAILURE, at_op=4),
        ])))
        drive.read_slot(3)
        with pytest.raises(TransientReadError):
            drive.read_slot(7)
        busy = drive.stats.busy_time
        drive.read_slot(7)
        drive.write_slot(9)
        assert (drive.stats.reads, drive.stats.writes) == (2, 1)
        assert drive.charged_accesses == 4
        with pytest.raises(HeadFailureError):
            drive.read_slot(11)
        with pytest.raises(HeadFailureError):
            drive.read_slot(12)
        assert drive.charged_accesses == 4 + 1  # the access that lost it
        assert drive.stats.busy_time > busy

    def test_slot_out_of_range(self, drive):
        with pytest.raises(ParameterError):
            drive.read_slot(drive.slots)

    def test_park_out_of_range(self, drive):
        with pytest.raises(ParameterError):
            drive.park(drive.geometry.cylinders)


class TestParameterDerivation:
    def test_parameters_ordering(self, drive):
        params = drive.parameters()
        assert params.seek_track <= params.seek_avg <= params.seek_max
        assert params.transfer_rate == drive.transfer_rate
        assert params.cylinders == drive.geometry.cylinders

    def test_seek_max_covers_every_observed_gap(self, drive):
        params = drive.parameters()
        worst = drive.positioning_time(0, drive.geometry.cylinders - 1)
        assert worst <= params.seek_max + 1e-12

    def test_randomized_rotation_requires_rng(self):
        geometry = TESTBED_DRIVE.geometry()
        with pytest.raises(ParameterError):
            SimulatedDrive(
                geometry=geometry,
                seek_model=TESTBED_DRIVE.seek_model(),
                rotation=Rotation(rpm=3600, randomized=True),
                transfer_rate=1e7,
                sectors_per_block=64,
            )

    def test_rejects_bad_transfer_rate(self):
        with pytest.raises(ParameterError):
            SimulatedDrive(
                geometry=TESTBED_DRIVE.geometry(),
                seek_model=TESTBED_DRIVE.seek_model(),
                rotation=Rotation(rpm=3600),
                transfer_rate=0,
                sectors_per_block=64,
            )


def _reference_window(drive, low_cyl, high_cyl):
    """The pre-refactor ``ConstrainedScatterAllocator._slot_window``."""
    geometry = drive.geometry
    low_cyl = max(0, low_cyl)
    high_cyl = min(geometry.cylinders - 1, high_cyl)
    if low_cyl > high_cyl:
        return range(0)
    spb = drive.sectors_per_block
    first_lba = low_cyl * geometry.sectors_per_cylinder
    last_lba = (high_cyl + 1) * geometry.sectors_per_cylinder - 1
    first_slot = (first_lba + spb - 1) // spb
    last_slot = min(last_lba // spb, drive.slots - 1)
    return range(first_slot, last_slot + 1)


def _geometry_drive(name):
    """One of the three ``DRIVE_CONFIGS``, or a ``spec/sectors_per_block``
    variant whose blocks do not divide a cylinder: slots straddle
    cylinders and the last sectors hold no whole slot, so ceil and clamp
    both bite."""
    from repro.disk.factory import DRIVE_CONFIGS, FAST_DRIVE

    if name in DRIVE_CONFIGS:
        return DRIVE_CONFIGS[name]()
    spec, sectors = name.split("/")
    return build_drive(
        {"testbed": TESTBED_DRIVE, "fast": FAST_DRIVE}[spec],
        sectors_per_block=int(sectors),
    )


@pytest.mark.parametrize("name", ["testbed", "fast", "table",
                                  "testbed/60", "fast/100"])
class TestSlotCylinderArithmetic:
    """``drive.cylinder_of`` / ``drive.slot_window`` are the one copy of
    the slot↔cylinder arithmetic the stack calls; ``DiskGeometry`` stays
    as the validated reference they are compared against."""

    def test_cylinder_of_equals_the_geometry_reference_for_every_slot(
        self, name
    ):
        drive = _geometry_drive(name)
        spb = drive.sectors_per_block
        reference = drive.geometry.cylinder_of_slot
        assert all(
            drive.cylinder_of(slot) == reference(slot, spb)
            for slot in range(drive.slots)
        )

    def test_out_of_range_slot_is_the_same_typed_error(self, name):
        drive = _geometry_drive(name)
        for slot in (-1, drive.slots, drive.slots + 10 ** 6):
            with pytest.raises(AddressError) as ours:
                drive.cylinder_of(slot)
            with pytest.raises(AddressError) as reference:
                drive.geometry.cylinder_of_slot(
                    slot, drive.sectors_per_block
                )
            assert str(ours.value) == str(reference.value)
            with pytest.raises(AddressError):
                drive.access_gap(0, slot)

    def test_slot_window_equals_the_old_formula(self, name):
        """Every cylinder in both roles (low end, high end, alone), plus a
        strided grid of pairs and the clamped / inverted cases — the
        window's start depends on the low end only and its stop on the
        high end only, so this covers every value either can take
        without walking all ~2M pairs of the fast drive."""
        drive = _geometry_drive(name)
        last = drive.geometry.cylinders - 1
        pairs = [(c, c) for c in range(last + 1)]
        pairs += [(0, c) for c in range(last + 1)]
        pairs += [(c, last) for c in range(last + 1)]
        grid = range(0, last + 1, 37)
        pairs += [(low, high) for low in grid for high in grid]
        pairs += [(-5, 3), (-9, -1), (last - 2, last + 50),
                  (last + 1, last + 9), (7, 6), (-3, last + 3)]
        for low, high in pairs:
            assert drive.slot_window(low, high) == _reference_window(
                drive, low, high
            ), (low, high)

    def test_single_cylinder_windows_partition_the_slots(self, name):
        """What lets the allocator verify a gap once per cylinder."""
        drive = _geometry_drive(name)
        covered = 0
        for cylinder in range(drive.geometry.cylinders):
            window = drive.slot_window(cylinder, cylinder)
            if len(window) == 0:
                continue
            assert window.start == covered
            assert drive.cylinder_of(window.start) == cylinder
            assert drive.cylinder_of(window[-1]) == cylinder
            covered = window.stop
        assert covered == drive.slots
