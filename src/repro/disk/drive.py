"""The simulated disk drive: timing, head state, and statistics.

:class:`SimulatedDrive` is the substrate everything above stores onto.  It
does not hold data bytes (the file-system layer tracks content); it holds
*time*: given the head's current position and a target block slot, it
answers "how long does this access take?" and moves the head.  All
durations come from the drive's seek curve, rotation model, and transfer
rate, so the analytic layer (:class:`repro.core.symbols.DiskParameters`)
and the simulation measure the same machine — :meth:`parameters` derives
the analytic triple (max / average / track access time) directly from the
simulated mechanism.

Per the paper's first simplifying assumption, writes are charged the same
time as reads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.symbols import DiskParameters
from repro.disk.geometry import DiskGeometry
from repro.disk.seek import Rotation, SeekModel
from repro.errors import AddressError, ParameterError
from repro.obs.recorder import recorder_for

__all__ = ["DriveStats", "SimulatedDrive"]


@dataclass
class DriveStats:
    """Running counters for one drive."""

    reads: int = 0
    writes: int = 0
    sectors_transferred: int = 0
    seek_time: float = 0.0
    rotation_time: float = 0.0
    transfer_time: float = 0.0
    seek_distance: int = 0
    faults_injected: int = 0
    retries: int = 0
    degraded_reads: int = 0

    @property
    def busy_time(self) -> float:
        """Total time the mechanism was occupied."""
        return self.seek_time + self.rotation_time + self.transfer_time


class SimulatedDrive:
    """One disk mechanism: geometry + seek curve + rotation + transfer rate.

    Parameters
    ----------
    geometry:
        CHS layout of the drive.
    seek_model:
        Cylinder-distance → seconds curve.
    rotation:
        Rotational-latency model.
    transfer_rate:
        Sustained media transfer rate, bits/second.
    sectors_per_block:
        Size of one file-system block slot, in sectors.
    rng:
        Seeded random source, required only when ``rotation.randomized``.
    """

    def __init__(
        self,
        geometry: DiskGeometry,
        seek_model: SeekModel,
        rotation: Rotation,
        transfer_rate: float,
        sectors_per_block: int,
        rng: Optional[random.Random] = None,
    ):
        if transfer_rate <= 0:
            raise ParameterError(
                f"transfer_rate must be positive, got {transfer_rate}"
            )
        if sectors_per_block < 1:
            raise ParameterError(
                f"sectors_per_block must be >= 1, got {sectors_per_block}"
            )
        if rotation.randomized and rng is None:
            raise ParameterError(
                "randomized rotation requires a seeded rng"
            )
        self.geometry = geometry
        self.seek_model = seek_model
        self.rotation = rotation
        self.transfer_rate = float(transfer_rate)
        self.sectors_per_block = sectors_per_block
        self.rng = rng
        self.stats = DriveStats()
        self._head_cylinder = 0
        self.injector = None
        #: The service recorder accesses report to (None: unobserved).
        self._rec = None
        #: Label this drive's row carries in a cost profile (``per_drive``);
        #: settable by whoever owns the drive, read when a summary is made.
        self.profile_label = "drive"
        # Geometry, seek curve, rotation, and rates are fixed for the
        # drive's lifetime (all frozen dataclasses), so the per-access
        # constants are resolved once instead of through property chains
        # on every one of the millions of accesses a sweep performs.
        self._block_bits = sectors_per_block * geometry.sector_bits
        self._total_slots = geometry.slots(sectors_per_block)
        self._sectors_per_cylinder = geometry.sectors_per_cylinder
        self._full_block_transfer = self._block_bits / self.transfer_rate
        self._fixed_latency = (
            None if rotation.randomized else rotation.average_latency
        )
        # Set here, filled on first use: an attribute first assigned
        # after __init__ would slow every attribute read on _access.
        self._cylinder_starts: Optional[List[int]] = None
        #: Seek seconds per cylinder distance, each evaluated on the
        #: curve once: a strand's reads repeat a few distances.
        self._seek_seconds: Dict[int, float] = {}

    def attach_injector(self, injector) -> None:
        """Install a :class:`~repro.faults.injector.FaultInjector`.

        Every subsequent access consults it; pass None to detach.
        """
        self.injector = injector

    def attach_observer(self, obs) -> None:
        """Install an :class:`~repro.obs.Observability` handle.

        Every access is then reported to the handle's service recorder
        (whose cost profile, if any, reads :attr:`stats` from now on);
        unobserved (the default, or a disabled handle) the access path
        tests one attribute.  Pass None to detach.
        """
        self._rec = recorder_for(obs, "drive")
        if self._rec is not None:
            self._rec.drive_attached(self)

    @property
    def observed(self) -> bool:
        """Whether an enabled observer is attached."""
        return self._rec is not None

    # -- derived sizes -------------------------------------------------------

    @property
    def block_bits(self) -> float:
        """Bits per block slot."""
        return self._block_bits

    @property
    def slots(self) -> int:
        """Number of block slots on this drive."""
        return self._total_slots

    @property
    def head_cylinder(self) -> int:
        """Current head position."""
        return self._head_cylinder

    @property
    def charged_accesses(self) -> int:
        """Accesses whose mechanism time was charged: the completed
        reads and writes plus the attempts a fault doomed (each moved one
        block slot's sectors under the head)."""
        return self.stats.sectors_transferred // self.sectors_per_block

    # -- slot <-> cylinder arithmetic (the one copy the stack calls) ------------

    def cylinder_of(self, slot: int) -> int:
        """Cylinder holding the first sector of a block slot — the same
        integers as the reference :meth:`DiskGeometry.cylinder_of_slot`,
        on the constants the drive resolved once."""
        if not 0 <= slot < self._total_slots:
            raise AddressError(
                f"slot {slot} outside drive (0..{self._total_slots - 1})"
            )
        return slot * self.sectors_per_block // self._sectors_per_cylinder

    @property
    def cylinder_starts(self) -> List[int]:
        """Cylinder c holds slots ``cylinder_starts[c]`` up to (not
        including) ``cylinder_starts[c + 1]``; resolved on first use."""
        if self._cylinder_starts is None:
            spb, spc = self.sectors_per_block, self._sectors_per_cylinder
            self._cylinder_starts = [
                min((cylinder * spc + spb - 1) // spb, self._total_slots)
                for cylinder in range(self.geometry.cylinders + 1)
            ]
        return self._cylinder_starts

    def slot_window(self, low_cyl: int, high_cyl: int) -> range:
        """Slots whose first sector lies in cylinders *low_cyl*..*high_cyl*
        (clamped to the drive; empty when inverted).  Single-cylinder
        windows partition the slots: ``cylinder_of(s) == c`` exactly for
        the slots of ``slot_window(c, c)``."""
        low_cyl = max(0, low_cyl)
        high_cyl = min(self.geometry.cylinders - 1, high_cyl)
        if low_cyl > high_cyl:
            return range(0)
        return range(
            self.cylinder_starts[low_cyl], self.cylinder_starts[high_cyl + 1]
        )

    # -- timing (pure: no state change) --------------------------------------

    def transfer_time(self, bits: float) -> float:
        """Media-transfer seconds for *bits* once positioned."""
        if bits < 0:
            raise ParameterError(f"bits must be >= 0, got {bits}")
        return bits / self.transfer_rate

    def positioning_time(
        self, from_cylinder: int, to_cylinder: int
    ) -> float:
        """Seek + expected rotational latency between two cylinders.

        Uses the rotation model's deterministic expectation — this is the
        function allocators and analytic derivations call, so it must not
        consume randomness.
        """
        distance = abs(to_cylinder - from_cylinder)
        return self.seek_model.seek_time(distance) + self.rotation.average_latency

    def access_gap(self, slot_a: int, slot_b: int) -> float:
        """Positioning delay between the blocks in two slots.

        This is the quantity the scattering parameter ``l_ds`` bounds: the
        time between finishing one block and touching the next.
        """
        return self.positioning_time(
            self.cylinder_of(slot_a), self.cylinder_of(slot_b)
        )

    # -- analytic parameter derivation ---------------------------------------

    def parameters(self) -> DiskParameters:
        """Project this mechanism onto the paper's Table-1 disk symbols.

        * ``seek_max`` — full-stroke seek + *worst-case* rotation (the
          bound §3.4 charges per request switch);
        * ``seek_avg`` — the classic uniform-random expectation (mean seek
          distance = one third of the stroke) + average rotation;
        * ``seek_track`` — adjacent-cylinder seek + average rotation.
        """
        full_stroke = self.geometry.cylinders - 1
        seek_max = (
            self.seek_model.seek_time(full_stroke) + self.rotation.max_latency
        )
        seek_avg = (
            self.seek_model.seek_time(max(1, full_stroke // 3))
            + self.rotation.average_latency
        )
        seek_track = (
            self.seek_model.seek_time(1) + self.rotation.average_latency
        )
        return DiskParameters(
            transfer_rate=self.transfer_rate,
            seek_max=seek_max,
            seek_avg=min(seek_avg, seek_max),
            seek_track=min(seek_track, seek_avg, seek_max),
            cylinders=self.geometry.cylinders,
            heads=1,
        )

    # -- stateful operations --------------------------------------------------

    def _access(self, slot: int, bits: Optional[float], reading: bool) -> float:
        """Charge one read (or write) of *slot*; returns its seconds."""
        total_slots = self._total_slots
        if not 0 <= slot < total_slots:
            raise ParameterError(
                f"slot {slot} outside drive (0..{total_slots - 1})"
            )
        stats, injector = self.stats, self.injector
        if injector is not None:
            fault = injector.pre_check(slot)
            if fault is not None:
                # Dead head: fail fast, no mechanism time charged.
                stats.faults_injected += 1
                raise fault
        # cylinder_of's expression, inline: this is the per-block path and
        # the range check above already raised this method's own error.
        target = slot * self.sectors_per_block // self._sectors_per_cylinder
        distance = abs(target - self._head_cylinder)
        try:
            seek = self._seek_seconds[distance]
        except KeyError:
            seek = self.seek_model.seek_time(distance)
            self._seek_seconds[distance] = seek
        latency = self._fixed_latency
        if latency is None:
            latency = self.rotation.latency(self.rng)
        if bits is None or bits >= self._block_bits:
            transfer = self._full_block_transfer
        else:
            if bits < 0:
                raise ParameterError(f"bits must be >= 0, got {bits}")
            transfer = bits / self.transfer_rate
        self._head_cylinder = target
        stats.seek_time += seek
        stats.rotation_time += latency
        stats.transfer_time += transfer
        stats.seek_distance += distance
        stats.sectors_transferred += self.sectors_per_block
        duration = seek + latency + transfer
        if self._rec is not None:
            self._rec.drive_access(seek)
        if injector is not None:
            # The failed attempt's time is already charged above: a fault
            # is only known once the access has been tried.
            fault = injector.post_check(slot, duration, stats.busy_time)
            if fault is not None:
                stats.faults_injected += 1
                raise fault
        if reading:
            stats.reads += 1
        else:
            stats.writes += 1
        return duration

    def read_slot(self, slot: int, bits: Optional[float] = None) -> float:
        """Read the block in *slot*; returns the elapsed time in seconds.

        *bits* may give the valid payload size for a partially filled
        block; timing is charged for the payload actually moved.
        """
        return self._access(slot, bits, True)

    def traced_read(
        self, slot: int, bits: Optional[float], now: float, rec, parent
    ) -> float:
        """Read *slot* as a traced access; returns elapsed seconds.

        The access is reported to *rec* (the caller's service recorder)
        as a child of *parent*, covering its simulated duration.  On an
        injected fault it is closed at the time the doomed attempt
        consumed, with the fault's type name as status, and the fault
        propagates.
        """
        span = rec.span_begin("drive_access", now, parent, slot)
        try:
            duration = self.read_slot(slot, bits)
        except Exception as fault:
            rec.span_end(
                span,
                now + getattr(fault, "elapsed", 0.0),
                type(fault).__name__,
            )
            raise
        rec.span_end(span, now + duration)
        return duration

    def write_slot(self, slot: int, bits: Optional[float] = None) -> float:
        """Write the block in *slot*; timing identical to a read (§3)."""
        return self._access(slot, bits, False)

    def park(self, cylinder: int = 0) -> None:
        """Move the head without charging time (test/setup helper)."""
        if not 0 <= cylinder < self.geometry.cylinders:
            raise ParameterError(
                f"cylinder {cylinder} outside drive "
                f"(0..{self.geometry.cylinders - 1})"
            )
        self._head_cylinder = cylinder
