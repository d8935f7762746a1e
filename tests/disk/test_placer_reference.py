"""The chain placer against a brute-force statement of its contract.

``spec_after`` states what ``allocate_after(previous)`` promises, with no
window arithmetic: of every free slot other than *previous*, those whose
cylinder's exact gap from *previous*'s (``drive.positioning_time``) the
bounds ``[lower, upper]`` admit; of those, the first in the placer's
stated order — forward cylinders nearest first, then backward ones
farthest first, the lowest slot of a cylinder first.  A strand's head is
the first free slot at or after the hint, wrapping to slot 0, and a
strand that cannot be placed whole releases what it took.  Over all three
seek curves, lower bounds of zero and above, unbounded upper bounds,
pre-occupied disks and hints, the placer must return the spec's slots
(or raise the same error type) and leave the same free map, its free
count equal to the free slots it holds — chains that fail partway too.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.disk import ConstrainedScatterAllocator, FreeMap, ScatterBounds
from repro.disk.drive import SimulatedDrive
from repro.disk.geometry import DiskGeometry
from repro.disk.seek import LinearSeek, Rotation, SqrtAffineSeek, TableSeek
from repro.errors import AllocationError, DiskFullError, ScatteringError

ROTATION = Rotation(rpm=3600.0)


def spec_after(allocator, previous):
    """The slot the placer must take after *previous* (and takes it)."""
    drive, freemap, bounds = allocator.drive, allocator.freemap, allocator.bounds
    spb = drive.sectors_per_block

    def cylinder(slot):
        return drive.geometry.cylinder_of_slot(slot, spb)

    center = cylinder(previous)
    admitted = [
        slot for slot in range(drive.slots)
        if slot != previous and freemap.is_free(slot)
        and bounds.admits(drive.positioning_time(center, cylinder(slot)))
    ]
    if not admitted:
        raise ScatteringError(f"no free slot after {previous}")
    slot = min(admitted, key=lambda s: (cylinder(s) < center, cylinder(s), s))
    freemap.allocate(slot)
    return slot


def spec_strand(allocator, count, hint):
    """The strand the placer must place: a head, then ``spec_after``."""
    freemap, slots = allocator.freemap, []
    start = 0 if hint is None else hint
    free = [s for s in range(freemap.slots) if freemap.is_free(s)]
    try:
        if not free:
            raise DiskFullError("no free slots for strand head")
        head = min(free, key=lambda s: (s < start, s))
        freemap.allocate(head)
        slots.append(head)
        for _ in range(count - 1):
            slots.append(spec_after(allocator, slots[-1]))
    except (AllocationError, DiskFullError):
        for slot in slots:
            freemap.release(slot)
        raise
    return slots


def nudged(value, ulps):
    """*value* moved by *ulps* (-1, 0 or 1) representable floats."""
    if not ulps:
        return value
    return math.nextafter(value, math.copysign(math.inf, ulps))


@st.composite
def seek_models(draw):
    kind = draw(st.sampled_from(["linear", "sqrt", "table"]))
    settle = draw(st.sampled_from([0.0, 0.002, 0.003]))
    if kind == "linear":
        return LinearSeek(settle, draw(st.sampled_from([0.0, 2e-4, 1e-3])))
    if kind == "sqrt":
        return SqrtAffineSeek(settle, draw(st.sampled_from([0.0, 1e-3])))
    distances = sorted(draw(st.sets(st.integers(1, 40), min_size=1, max_size=4)))
    steps = draw(st.lists(
        st.sampled_from([0.0, 5e-4, 2e-3]),
        min_size=len(distances), max_size=len(distances),
    ))
    times, total = [], settle
    for step in steps:
        total += step
        times.append(total)
    return TableSeek(list(zip(distances, times)))


@st.composite
def placements(draw):
    """A small drive (slots may straddle cylinders), bounds, a
    pre-occupied free map, a hint and a strand length."""
    geometry = DiskGeometry(
        cylinders=draw(st.integers(1, 24)),
        tracks_per_cylinder=draw(st.integers(1, 2)),
        sectors_per_track=draw(st.integers(1, 6)),
        sector_bits=4096.0,
    )
    drive = SimulatedDrive(
        geometry, draw(seek_models()), ROTATION, 1e7,
        sectors_per_block=draw(
            st.integers(1, min(4, geometry.total_sectors))
        ),
    )
    rotation = ROTATION.average_latency
    # Bounds on (or one ulp off) a real gap, where inverting the seek
    # curve in closed form and checking the gap can round apart.
    gap = st.builds(
        lambda distance, ulps: nudged(
            drive.positioning_time(0, distance), ulps
        ),
        st.integers(0, geometry.cylinders - 1),
        st.sampled_from([-1, 0, 1]),
    )
    lower = draw(st.one_of(
        st.just(0.0), st.floats(0.0, rotation + 0.03), gap,
    ))
    floor = max(lower, rotation)
    upper = draw(st.one_of(
        st.just(math.inf), st.floats(floor, floor + 0.05),
        gap.filter(lambda value: value >= floor),
    ))
    used = draw(st.sets(st.integers(0, drive.slots - 1)))
    hint = draw(st.one_of(st.none(), st.integers(0, drive.slots - 1)))
    return drive, ScatterBounds(lower, upper), used, hint


def twin_allocators(drive, bounds, used):
    """Two placers over equal, separately owned free maps (None when the
    bounds admit no distance on this drive)."""
    pair = []
    for _ in range(2):
        freemap = FreeMap(drive.slots)
        for slot in used:
            freemap.allocate(slot)
        try:
            pair.append(ConstrainedScatterAllocator(drive, freemap, bounds))
        except ScatteringError:
            return None
    return pair


def outcome(call):
    try:
        return call()
    except (AllocationError, DiskFullError) as error:
        return type(error)


class TestPlacerEqualsTheScan:
    @settings(max_examples=300, deadline=None)
    @given(case=placements(), count=st.integers(1, 30))
    def test_strands_from_hints_on_occupied_disks(self, case, count):
        drive, bounds, used, hint = case
        pair = twin_allocators(drive, bounds, used)
        if pair is None:
            return
        ours, theirs = pair
        assert outcome(lambda: ours.allocate_strand(count, hint)) == outcome(
            lambda: spec_strand(theirs, count, hint)
        )
        assert ours.freemap.free_slots() == theirs.freemap.free_slots()
        # The chain settles its free count once, when it ends or fails.
        assert ours.freemap.free_count == len(ours.freemap.free_slots())

    @settings(max_examples=300, deadline=None)
    @given(case=placements(), data=st.data())
    def test_after_a_previous_slot_that_is_itself_free(self, case, data):
        drive, bounds, used, _ = case
        pair = twin_allocators(drive, bounds, used)
        free = sorted(set(range(drive.slots)) - used)
        if pair is None or not free:
            return
        previous = data.draw(st.sampled_from(free))
        ours, theirs = pair
        assert outcome(lambda: ours.allocate_after(previous)) == outcome(
            lambda: spec_after(theirs, previous)
        )
        assert ours.freemap.free_slots() == theirs.freemap.free_slots()
        # The chain settles its free count once, when it ends or fails.
        assert ours.freemap.free_count == len(ours.freemap.free_slots())
        assert ours.freemap.is_free(previous)


class TestBoundsOneUlpFromAGap:
    """Where inverting the seek curve and checking the gap round apart,
    the placer trims the window's ends to what the exact gap admits (rare
    enough that the generated cases above seldom land there)."""

    @staticmethod
    def drive():
        """64 cylinders of 4 one-sector slots on a curve whose closed-form
        inverse admits one distance too many at these bounds."""
        return SimulatedDrive(
            DiskGeometry(64, 1, 4, 4096.0), LinearSeek(0.002, 0.001),
            ROTATION, 1e7, sectors_per_block=1,
        )

    def test_a_gap_one_ulp_above_the_upper_bound_is_refused(self):
        drive = self.drive()
        upper = nudged(drive.positioning_time(0, 36), -1)
        # Everything is taken but the anchor and one slot 36 cylinders
        # back, whose gap exceeds the bound by one ulp.
        used = set(range(drive.slots)) - {40 * 4, 4 * 4}
        ours, theirs = twin_allocators(drive, ScatterBounds(0.0, upper), used)
        assert ours.distance_window.stop - 1 == 36
        assert outcome(lambda: ours.allocate_after(40 * 4)) == outcome(
            lambda: spec_after(theirs, 40 * 4)
        ) == ScatteringError

    def test_a_gap_one_ulp_below_the_lower_bound_is_refused(self):
        drive = self.drive()
        lower = nudged(drive.positioning_time(0, 14), 1)
        ours, theirs = twin_allocators(
            drive, ScatterBounds(lower, math.inf), set()
        )
        assert ours.distance_window.start == 14
        slots = ours.allocate_strand(3, hint=0)
        assert slots == spec_strand(theirs, 3, 0) == [0, 15 * 4, 30 * 4]


class TestAdmittedDistancesOutsideTheClosedFormWindow:
    """Two distances the exact gap admits and the seek curve's closed-form
    inverse puts outside ``[d_min, d_max]``: the placer used to refuse
    them, placing farther than it had to or not at all."""

    @staticmethod
    def strand(seek, cylinders, lower, upper):
        drive = SimulatedDrive(
            DiskGeometry(cylinders, 1, 5, 4096.0), seek, ROTATION, 1e7,
            sectors_per_block=1,
        )
        ours, theirs = twin_allocators(
            drive, ScatterBounds(lower(drive), upper(drive)), set()
        )
        slots = ours.allocate_strand(3, hint=0)
        assert slots == spec_strand(theirs, 3, 0)
        return slots

    def test_a_flat_seek_curve_admits_the_nearest_cylinder(self):
        """Every move costs the settle time alone, so a bound equal to it
        admits distance 1 as much as distance 14."""
        def exact(drive):
            return drive.positioning_time(0, 1)

        slots = self.strand(SqrtAffineSeek(0.002, 0.0), 15, exact, exact)
        assert slots == [0, 5, 10]

    def test_an_upper_bound_equal_to_a_gap_admits_that_distance(self):
        """``upper − rotation`` rounds one ulp below ``seek(3)``, while the
        gap at distance 3 equals the bound; only that cylinder has room."""
        drive = TestBoundsOneUlpFromAGap.drive()
        used = set(range(drive.slots)) - {40 * 4, 43 * 4}
        bounds = ScatterBounds(0.0, drive.positioning_time(0, 3))
        ours, theirs = twin_allocators(drive, bounds, used)
        assert ours.allocate_after(40 * 4) == spec_after(theirs, 40 * 4) == 43 * 4

    def test_a_lower_bound_equal_to_a_gap_admits_that_distance(self):
        """``lower − rotation`` rounds one ulp above ``seek(5)``, while the
        gap at distance 5 equals the bound exactly."""
        slots = self.strand(
            SqrtAffineSeek(0.002, 0.001), 13,
            lambda drive: drive.positioning_time(0, 5), lambda drive: math.inf,
        )
        assert slots == [0, 25, 50]
