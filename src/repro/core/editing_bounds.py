"""Bounds on copying needed to maintain scattering while editing (§4.2).

Edits (INSERT, DELETE, ...) leave a rope pointing at a *sequence of
intervals* of immutable strands.  Inside each interval the scattering
parameter is bounded by construction, but at a seam — the jump from the
last block of one interval to the first block of the next — the two blocks
can be anywhere on the disk, up to ``l_seek_max`` apart.  Continuity can
therefore break exactly at interval boundaries.

The paper's repair: copy a small prefix of the second interval (or suffix
of the first) into the gap region, redistributing the copied blocks so
every consecutive pair again satisfies the scattering bounds
``[l_ds_lower, l_ds_upper]``.  With strand S_b's scattering bounded below
by ``l_ds_lower``, the number of blocks that must be copied is bounded by::

    C_b = ⌈ l_seek_max / (2·l_ds_lower) ⌉     (Eq. 19, sparsely occupied disk)
    C_b = ⌈ l_seek_max /  l_ds_lower    ⌉     (Eq. 20, densely occupied disk)

because m = l_seek_max / l_ds_lower copied blocks, spread at at-least-
l_ds_lower spacing, absorb the worst-case seam gap — and on a sparse disk
only the first m/2 need moving (free space lets the redistribution meet the
existing block b_{j+m/2} halfway).  Copying the *suffix* of S_a instead
gives the symmetric bound C_a; the planner picks the cheaper side.

Copied blocks form a **new strand** (strands are immutable, and a separate
strand keeps garbage collection simple), which the edited rope references
in place of the original prefix/suffix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.symbols import DiskParameters
from repro.errors import ParameterError

__all__ = [
    "copy_bound_sparse",
    "copy_bound_dense",
    "copy_bound",
    "SeamRepairBound",
    "seam_repair_bound",
    "DENSE_OCCUPANCY_THRESHOLD",
]

#: Disk-occupancy fraction above which the dense-disk bound (Eq. 20)
#: applies.  The paper distinguishes only "sparsely occupied" from
#: "densely occupied (i.e., nearly full)"; we draw the line at 80 %.
DENSE_OCCUPANCY_THRESHOLD = 0.80


def _validate(seek_max: float, scattering_lower: float) -> None:
    if seek_max < 0:
        raise ParameterError(f"seek_max must be >= 0, got {seek_max}")
    if scattering_lower <= 0:
        raise ParameterError(
            "scattering_lower must be positive for a finite copy bound "
            f"(got {scattering_lower}); strands placed without a lower "
            "scattering bound admit unbounded seam-repair copying"
        )


def copy_bound_sparse(seek_max: float, scattering_lower: float) -> int:
    """Eq. (19): max blocks copied on a sparsely occupied disk."""
    _validate(seek_max, scattering_lower)
    return math.ceil(seek_max / (2.0 * scattering_lower))


def copy_bound_dense(seek_max: float, scattering_lower: float) -> int:
    """Eq. (20): max blocks copied on a densely occupied (nearly full) disk."""
    _validate(seek_max, scattering_lower)
    return math.ceil(seek_max / scattering_lower)


def copy_bound(
    seek_max: float, scattering_lower: float, occupancy: float
) -> int:
    """Copy bound for the regime implied by current disk *occupancy*.

    Parameters
    ----------
    occupancy:
        Fraction of the disk in use, in [0, 1].
    """
    if not 0.0 <= occupancy <= 1.0:
        raise ParameterError(f"occupancy must be in [0, 1], got {occupancy}")
    if occupancy >= DENSE_OCCUPANCY_THRESHOLD:
        return copy_bound_dense(seek_max, scattering_lower)
    return copy_bound_sparse(seek_max, scattering_lower)


@dataclass(frozen=True)
class SeamRepairBound:
    """Both-sided copy bounds for one interval seam.

    The §4.2 algorithm may repair a seam by copying the leading blocks of
    the *following* interval (cost ≤ ``from_successor``) or the trailing
    blocks of the *preceding* interval (cost ≤ ``from_predecessor``);
    "the actual number of blocks that needs to be copied is the minimum
    of C_a and C_b."
    """

    from_predecessor: int
    from_successor: int
    dense: bool


def seam_repair_bound(
    disk: DiskParameters,
    predecessor_scattering_lower: float,
    successor_scattering_lower: float,
    occupancy: float,
) -> SeamRepairBound:
    """Worst-case copies to repair one seam between two strand intervals.

    Parameters
    ----------
    predecessor_scattering_lower / successor_scattering_lower:
        The lower scattering bounds (``l_ds_lower``) the two strands were
        placed with.  Each side's bound uses its own strand's spacing.
    occupancy:
        Current disk-occupancy fraction, selecting Eq. (19) vs Eq. (20).
    """
    dense = occupancy >= DENSE_OCCUPANCY_THRESHOLD
    if dense:
        c_a = copy_bound_dense(disk.seek_max, predecessor_scattering_lower)
        c_b = copy_bound_dense(disk.seek_max, successor_scattering_lower)
    else:
        c_a = copy_bound_sparse(disk.seek_max, predecessor_scattering_lower)
        c_b = copy_bound_sparse(disk.seek_max, successor_scattering_lower)
    return SeamRepairBound(
        from_predecessor=c_a, from_successor=c_b, dense=dense
    )
