"""Ready-made drive mechanisms for the standard experiments.

Profiles in :mod:`repro.config` carry *analytic* disk parameters; the
simulation needs a full *mechanism* (geometry + seek curve + rotation).
This module provides named mechanism specs whose derived analytic
parameters (:meth:`SimulatedDrive.parameters`) land in the same regime as
the corresponding profile, and — more importantly — it lets experiments
derive the analytic disk *from* the mechanism, so analysis and simulation
describe the identical machine by construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.disk.drive import SimulatedDrive
from repro.disk.freemap import FreeMap
from repro.disk.geometry import DiskGeometry
from repro.disk.raid import DriveArray
from repro.disk.seek import LinearSeek, Rotation, SeekModel, TableSeek
from repro.errors import ParameterError
from repro.units import bytes_, megabits_per_second, milliseconds

__all__ = [
    "DriveSpec",
    "TESTBED_DRIVE",
    "FAST_DRIVE",
    "DRIVE_CONFIGS",
    "build_drive",
    "build_drive_config",
    "build_array",
    "drive_with_freemap",
]


@dataclass(frozen=True)
class DriveSpec:
    """Everything needed to instantiate one simulated mechanism."""

    name: str
    cylinders: int
    tracks_per_cylinder: int
    sectors_per_track: int
    sector_bits: float
    rpm: float
    transfer_rate: float
    seek_settle: float
    seek_slope: float

    def geometry(self) -> DiskGeometry:
        """The spec's CHS geometry."""
        return DiskGeometry(
            cylinders=self.cylinders,
            tracks_per_cylinder=self.tracks_per_cylinder,
            sectors_per_track=self.sectors_per_track,
            sector_bits=self.sector_bits,
        )

    def seek_model(self) -> SeekModel:
        """The spec's seek curve."""
        return LinearSeek(settle_time=self.seek_settle, slope=self.seek_slope)

    def rotation(self, randomized: bool = False) -> Rotation:
        """The spec's rotation model."""
        return Rotation(rpm=self.rpm, randomized=randomized)


#: A period-typical 1991 PC-AT SCSI drive: ~229 MByte, 3600 rpm,
#: ~24 ms full-stroke seek, 10 Mbit/s media rate.
TESTBED_DRIVE = DriveSpec(
    name="testbed-1991-drive",
    cylinders=1024,
    tracks_per_cylinder=8,
    sectors_per_track=56,
    sector_bits=bytes_(512),
    rpm=3600.0,
    transfer_rate=megabits_per_second(10.0),
    seek_settle=milliseconds(3.0),
    seek_slope=milliseconds(0.02),
)

#: A projected faster mechanism for multi-client sweeps: 5400 rpm,
#: 40 Mbit/s, ~14 ms full stroke.
FAST_DRIVE = DriveSpec(
    name="fast-drive",
    cylinders=2048,
    tracks_per_cylinder=8,
    sectors_per_track=112,
    sector_bits=bytes_(512),
    rpm=5400.0,
    transfer_rate=megabits_per_second(40.0),
    seek_settle=milliseconds(2.0),
    seek_slope=milliseconds(0.006),
)


def build_drive(
    spec: DriveSpec = TESTBED_DRIVE,
    sectors_per_block: int = 64,
    randomized_rotation: bool = False,
    rng: Optional[random.Random] = None,
) -> SimulatedDrive:
    """Instantiate one mechanism from a spec.

    The default 64-sector block (32 KBytes at 512-byte sectors) holds four
    8-KByte compressed NTSC frames — the testbed's usual granularity.
    """
    return SimulatedDrive(
        geometry=spec.geometry(),
        seek_model=spec.seek_model(),
        rotation=spec.rotation(randomized_rotation),
        transfer_rate=spec.transfer_rate,
        sectors_per_block=sectors_per_block,
        rng=rng,
    )


def _table_drive() -> SimulatedDrive:
    """The testbed mechanism replayed through a measured-curve TableSeek.

    Sampling the testbed's linear curve at a handful of distances and
    interpolating between them exercises the memoized table path the way
    a real datasheet replay would.
    """
    linear = TESTBED_DRIVE.seek_model()
    samples = [1, 4, 16, 64, 256, TESTBED_DRIVE.cylinders - 1]
    return SimulatedDrive(
        geometry=TESTBED_DRIVE.geometry(),
        seek_model=TableSeek([(d, linear.seek_time(d)) for d in samples]),
        rotation=TESTBED_DRIVE.rotation(),
        transfer_rate=TESTBED_DRIVE.transfer_rate,
        sectors_per_block=64,
    )


#: Named drive configurations scenarios and sweeps select by string.
DRIVE_CONFIGS = {
    "testbed": lambda: build_drive(TESTBED_DRIVE),
    "fast": lambda: build_drive(FAST_DRIVE),
    "table": _table_drive,
}


def build_drive_config(name: str = "testbed") -> SimulatedDrive:
    """Instantiate one of the named :data:`DRIVE_CONFIGS`."""
    try:
        factory = DRIVE_CONFIGS[name]
    except KeyError:
        raise ParameterError(
            f"unknown drive config {name!r}; known: "
            f"{', '.join(sorted(DRIVE_CONFIGS))}"
        ) from None
    return factory()


def build_array(
    heads: int,
    spec: DriveSpec = TESTBED_DRIVE,
    sectors_per_block: int = 64,
) -> DriveArray:
    """Instantiate a p-member array of identical mechanisms."""
    if heads < 1:
        raise ParameterError(f"heads must be >= 1, got {heads}")
    return DriveArray(
        [build_drive(spec, sectors_per_block) for _ in range(heads)]
    )


def drive_with_freemap(
    spec: DriveSpec = TESTBED_DRIVE,
    sectors_per_block: int = 64,
    randomized_rotation: bool = False,
    rng: Optional[random.Random] = None,
):
    """Convenience: a drive plus a matching free map, as a tuple."""
    drive = build_drive(spec, sectors_per_block, randomized_rotation, rng)
    return drive, FreeMap(drive.slots)
