"""Simulated disk substrate: geometry, seek curves, drives, allocators.

This package replaces the paper's physical PC-AT disk.  The continuity
analysis (:mod:`repro.core`) depends on a drive only through its transfer
rate and access-time bounds, all of which :class:`SimulatedDrive` derives
from an explicit mechanism (seek curve + rotation + geometry), so the
analytic and simulated layers always describe the same machine.

The three §3 allocation disciplines — constrained-scatter, random, and
contiguous — are implemented side by side for the comparison experiments.
"""

from repro.disk.allocation import (
    Allocator,
    ConstrainedScatterAllocator,
    ContiguousAllocator,
    RandomAllocator,
    ScatterBounds,
)
from repro.disk.cache import BlockCache, CachedDrive, CacheStats
from repro.disk.drive import DriveStats, SimulatedDrive
from repro.disk.factory import (
    FAST_DRIVE,
    TESTBED_DRIVE,
    DriveSpec,
    build_array,
    build_drive,
)
from repro.disk.freemap import FreeMap
from repro.disk.geometry import DiskGeometry
from repro.disk.layout import GapFiller, Placement, StrandPlacer
from repro.disk.raid import DriveArray, StripedSlot
from repro.disk.seek import (
    LinearSeek,
    Rotation,
    SeekModel,
    SqrtAffineSeek,
    TableSeek,
)

__all__ = [
    "Allocator",
    "BlockCache",
    "CacheStats",
    "CachedDrive",
    "ConstrainedScatterAllocator",
    "ContiguousAllocator",
    "DiskGeometry",
    "DriveArray",
    "DriveSpec",
    "DriveStats",
    "FAST_DRIVE",
    "FreeMap",
    "GapFiller",
    "LinearSeek",
    "Placement",
    "RandomAllocator",
    "Rotation",
    "ScatterBounds",
    "SeekModel",
    "SimulatedDrive",
    "SqrtAffineSeek",
    "StrandPlacer",
    "StripedSlot",
    "TESTBED_DRIVE",
    "TableSeek",
    "build_array",
    "build_drive",
]
