"""The runtime half of fault injection: a plan executor for one drive.

A :class:`FaultInjector` is attached to one :class:`~repro.disk.drive.
SimulatedDrive` (``drive.attach_injector``).  The drive consults it on
every access:

* :meth:`pre_check` *before* any time is charged — a drive whose head
  has already failed faults fast, consuming no mechanism time;
* :meth:`post_check` *after* the access timing is computed — transient
  and media-defect faults surface only once the (wasted) seek, rotation,
  and transfer time has been spent, which is what makes injected faults
  cost realistic retry time.

The injector consumes **no randomness**: every decision is a pure
function of the plan and the access sequence, so identical workloads
replay identical fault histories (the determinism contract the chaos
and property tests pin down).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import (
    HeadFailureError,
    MediaDefectError,
    TransientReadError,
)
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec

__all__ = ["FaultInjector"]


class FaultInjector:
    """Executes one drive's :class:`FaultPlan` against its access stream.

    Parameters
    ----------
    plan:
        The fault schedule (already filtered to this drive; see
        :meth:`FaultPlan.for_drive`).
    drive_index:
        This drive's position in its array, echoed into
        :class:`HeadFailureError` so recovery knows which head died.
    """

    def __init__(self, plan: FaultPlan, drive_index: int = 0):
        self.plan = plan
        self.drive_index = drive_index
        self.op_index = 0
        self.injected = 0
        self.head_failed = False
        self._defect_slots = {
            spec.slot
            for spec in plan
            if spec.kind is FaultKind.MEDIA_DEFECT
        }
        self._transient_by_op: Dict[int, FaultSpec] = {
            spec.at_op: spec
            for spec in plan
            if spec.kind is FaultKind.TRANSIENT and spec.at_op is not None
        }
        # Slot-targeted transients: armed until their slot is touched.
        self._transient_by_slot: Dict[int, int] = {}
        for spec in plan:
            if spec.kind is FaultKind.TRANSIENT and spec.at_op is None:
                self._transient_by_slot[spec.slot] = (
                    self._transient_by_slot.get(spec.slot, 0) + 1
                )
        self._head_failures: List[FaultSpec] = [
            spec for spec in plan if spec.kind is FaultKind.HEAD_FAILURE
        ]

    # -- bookkeeping ---------------------------------------------------------

    @property
    def pending_transients(self) -> int:
        """Slot-targeted transient faults not yet fired."""
        return sum(self._transient_by_slot.values()) + len(
            self._transient_by_op
        )

    # -- drive hooks ---------------------------------------------------------

    def pre_check(self, slot: int) -> Optional[HeadFailureError]:
        """Fault raised before the mechanism moves, or None.

        A dead head fails fast: no seek/rotation/transfer is charged.
        """
        if self.head_failed:
            self.op_index += 1
            self.injected += 1
            return HeadFailureError(
                f"head {self.drive_index} is failed; slot {slot} "
                "unreachable",
                slot=slot,
                elapsed=0.0,
                drive_index=self.drive_index,
            )
        return None

    def post_check(
        self, slot: int, elapsed: float, busy_time: float
    ) -> Optional[Exception]:
        """Fault surfacing after *elapsed* seconds of access time, or None.

        Called once per completed access attempt; advances the operation
        counter.  Priority: head failure (the mechanism dies mid-access)
        over media defect over transient.
        """
        op = self.op_index
        self.op_index += 1
        for spec in self._head_failures:
            triggered = (
                spec.at_op is not None and op >= spec.at_op
            ) or (
                spec.at_time is not None and busy_time >= spec.at_time
            )
            if triggered:
                self.head_failed = True
                self.injected += 1
                return HeadFailureError(
                    f"head {self.drive_index} failed during access to "
                    f"slot {slot}",
                    slot=slot,
                    elapsed=elapsed,
                    drive_index=self.drive_index,
                )
        if slot in self._defect_slots:
            self.injected += 1
            return MediaDefectError(
                f"latent sector error at slot {slot}",
                slot=slot,
                elapsed=elapsed,
            )
        spec = self._transient_by_op.pop(op, None)
        if spec is not None:
            self.injected += 1
            return TransientReadError(
                f"transient error on operation {op} (slot {slot})",
                slot=slot,
                elapsed=elapsed,
            )
        armed = self._transient_by_slot.get(slot, 0)
        if armed:
            if armed == 1:
                del self._transient_by_slot[slot]
            else:
                self._transient_by_slot[slot] = armed - 1
            self.injected += 1
            return TransientReadError(
                f"transient error at slot {slot}",
                slot=slot,
                elapsed=elapsed,
            )
        return None
