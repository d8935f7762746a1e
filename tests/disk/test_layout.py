"""Unit tests for strand placement, gap filling, and slot search."""

import pytest

from repro.disk import (
    ConstrainedScatterAllocator,
    FreeMap,
    GapFiller,
    Placement,
    ScatterBounds,
    StrandPlacer,
    build_drive,
)
from repro.disk.layout import find_free_slot_near
from repro.errors import DiskFullError, ParameterError


@pytest.fixture
def drive():
    return build_drive()


@pytest.fixture
def freemap(drive):
    return FreeMap(drive.slots)


@pytest.fixture
def placer(drive, freemap):
    bounds = ScatterBounds(0.0, drive.rotation.average_latency + 0.008)
    return StrandPlacer(
        drive, ConstrainedScatterAllocator(drive, freemap, bounds)
    )


class TestPlacement:
    def test_measured_gaps_match_drive(self, drive, placer):
        placement = placer.place(30)
        assert len(placement.slots) == 30
        for (a, b), gap in zip(
            zip(placement.slots, placement.slots[1:]), placement.gaps
        ):
            assert gap == pytest.approx(drive.access_gap(a, b))

    def test_gap_statistics(self, placer):
        placement = placer.place(30)
        gaps = placement.gaps
        assert min(gaps) <= placement.mean_gap <= placement.max_gap == max(gaps)

    def test_single_block_placement(self, placer):
        placement = placer.place(1)
        assert placement.max_gap == 0.0
        assert placement.mean_gap == 0.0

    def test_remove_releases_slots(self, placer, freemap):
        before = freemap.free_count
        placement = placer.place(20)
        assert freemap.free_count == before - 20
        placer.remove(placement)
        assert freemap.free_count == before

    def test_placement_validation(self):
        with pytest.raises(ParameterError):
            Placement(slots=(), gaps=())
        with pytest.raises(ParameterError):
            Placement(slots=(1, 2), gaps=())


class TestGapFiller:
    def test_takes_lowest_free_slots(self, freemap):
        freemap.allocate(0)
        filler = GapFiller(freemap)
        slots = filler.place(3)
        assert slots == [1, 2, 3]

    def test_remove(self, freemap):
        filler = GapFiller(freemap)
        slots = filler.place(5)
        filler.remove(slots)
        assert freemap.free_count == freemap.slots

    def test_insufficient_space(self, freemap):
        filler = GapFiller(freemap)
        with pytest.raises(DiskFullError):
            filler.place(freemap.slots + 1)

    def test_media_gaps_usable_for_text(self, drive, freemap):
        """The paper's unified-server point: text fits between media blocks."""
        rotation = drive.rotation.average_latency
        # A lower bound forcing real seeks leaves slot gaps between blocks.
        bounds = ScatterBounds(rotation + 0.004, rotation + 0.008)
        placer = StrandPlacer(
            drive, ConstrainedScatterAllocator(drive, freemap, bounds)
        )
        placement = placer.place(50)
        filler = GapFiller(freemap)
        text_slots = filler.place(30)
        media = set(placement.slots)
        assert not media.intersection(text_slots)
        # Some text landed strictly inside the media extent (in the gaps).
        low, high = min(media), max(media)
        assert any(low < slot < high for slot in text_slots)


class TestFindFreeSlotNear:
    def test_exact_cylinder_when_free(self, drive, freemap):
        cylinder = 100
        slot = find_free_slot_near(freemap, drive, cylinder)
        assert abs(drive.cylinder_of(slot) - cylinder) <= 1

    def test_widens_when_neighbourhood_full(self, drive, freemap):
        target = 100
        for slot in range(drive.slots):
            if abs(drive.cylinder_of(slot) - target) <= 10:
                freemap.allocate(slot)
        slot = find_free_slot_near(freemap, drive, target)
        assert abs(drive.cylinder_of(slot) - target) > 10

    def test_clamps_cylinder(self, drive, freemap):
        slot = find_free_slot_near(freemap, drive, 10 ** 9)
        assert 0 <= slot < drive.slots

    def test_raises_within_widen_limit(self, drive, freemap):
        for slot in range(drive.slots):
            freemap.allocate(slot)
        with pytest.raises(DiskFullError):
            find_free_slot_near(freemap, drive, 0, max_widen=5)
