"""Declarative fault schedules: what breaks, where, and when.

A :class:`FaultPlan` is an immutable list of :class:`FaultSpec` records
describing every hardware fault a run should experience.  Plans are built
either explicitly (scripted chaos tests pin exact slots and operation
indices) or from a seed via :meth:`FaultPlan.random` — in both cases all
randomness is consumed *at construction time*, so the injector that
executes the plan is a pure function of the access sequence and the same
plan replayed over the same workload produces bit-identical behaviour.

Fault taxonomy (cf. the latent-sector-error and whole-disk failure modes
storage papers model):

* ``TRANSIENT`` — one access fails (soft ECC error); a retry of the same
  slot may succeed.  Triggered by operation index (``at_op``) or by the
  next access touching ``slot``; fires once, then is retired.
* ``MEDIA_DEFECT`` — the slot's media is pitted; *every* access to it
  fails until the block is relocated.
* ``HEAD_FAILURE`` — the whole mechanism dies at ``at_op`` (or once the
  drive's busy clock passes ``at_time``); all later accesses fail fast.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

from repro.errors import ParameterError, check_count, check_seconds

__all__ = ["FaultKind", "FaultSpec", "FaultPlan"]


class FaultKind(enum.Enum):
    """The three injected failure modes."""

    TRANSIENT = "transient"
    MEDIA_DEFECT = "media-defect"
    HEAD_FAILURE = "head-failure"


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    Attributes
    ----------
    kind:
        Failure mode.
    slot:
        Target block slot.  Required for ``MEDIA_DEFECT``; for
        ``TRANSIENT`` it selects "the next access to this slot" when
        ``at_op`` is not given.
    at_op:
        Trigger on the drive's N-th access (0-based, reads and writes
        both count).  Required for ``HEAD_FAILURE`` unless ``at_time``
        is given.
    at_time:
        Trigger once the drive's cumulative busy time reaches this many
        simulated seconds (``HEAD_FAILURE`` only).
    drive_index:
        Which array member the fault targets (0 for single drives).
    """

    kind: FaultKind
    slot: Optional[int] = None
    at_op: Optional[int] = None
    at_time: Optional[float] = None
    drive_index: int = 0

    def __post_init__(self) -> None:
        if self.kind is FaultKind.MEDIA_DEFECT and self.slot is None:
            raise ParameterError("MEDIA_DEFECT requires a target slot")
        if self.kind is FaultKind.TRANSIENT and (self.slot, self.at_op) == (None, None):
            raise ParameterError("TRANSIENT requires a target slot or operation index")
        if self.kind is FaultKind.HEAD_FAILURE and (
            self.at_op is None and self.at_time is None
        ):
            raise ParameterError(
                "HEAD_FAILURE requires an operation index or a time"
            )
        for name in ("slot", "at_op"):
            if getattr(self, name) is not None:
                check_count(name, getattr(self, name), 0)
        check_count("drive_index", self.drive_index, 0)
        if self.at_time is not None:
            check_seconds("at_time", self.at_time)


class FaultPlan:
    """An ordered, immutable schedule of faults for one run."""

    def __init__(self, specs: Iterable[FaultSpec] = (), seed: int = 0):
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self.seed = seed

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    def for_drive(self, drive_index: int) -> "FaultPlan":
        """The sub-plan targeting one array member."""
        return FaultPlan(
            (s for s in self.specs if s.drive_index == drive_index),
            seed=self.seed,
        )

    @classmethod
    def random(
        cls,
        seed: int,
        slots: Sequence[int],
        transient: int = 0,
        defects: int = 0,
        head_failure_at_op: Optional[int] = None,
        drive_index: int = 0,
    ) -> "FaultPlan":
        """Draw a plan from a seed over a set of candidate slots.

        All randomness happens here: the returned plan is concrete, so
        two runs over it are identical.  ``transient`` faults are
        attached to distinct slots ("the next access to this slot
        fails once"); ``defects`` marks further distinct slots as
        permanently bad.
        """
        check_count("transient", transient, 0)
        check_count("defects", defects, 0)
        unique = sorted(set(slots))
        if transient + defects > len(unique):
            raise ParameterError(
                f"cannot target {transient + defects} distinct slots: "
                f"only {len(unique)} candidates"
            )
        kinds = [FaultKind.TRANSIENT] * transient
        kinds += [FaultKind.MEDIA_DEFECT] * defects
        chosen = random.Random(seed).sample(unique, transient + defects)
        specs = [
            FaultSpec(kind=kind, slot=slot, drive_index=drive_index)
            for kind, slot in zip(kinds, chosen)
        ]
        if head_failure_at_op is not None:
            specs.append(
                FaultSpec(
                    kind=FaultKind.HEAD_FAILURE,
                    at_op=head_failure_at_op,
                    drive_index=drive_index,
                )
            )
        return cls(specs, seed=seed)
