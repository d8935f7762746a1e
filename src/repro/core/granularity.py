"""Determining storage granularity and scattering (§3.3.4).

Granularity (η, units per block) is chosen from the *display device's*
internal buffer capacity, because with direct disk→device transfer the
device buffer is where a block lands:

* buffer holds one frame  → η = 1;
* pipelined retrieval with an f-frame buffer → the buffer is split in two
  halves, η ∈ [1, f/2];
* concurrent retrieval with p accesses and an f-frame buffer → η ∈ [1, f/p].

Once η is fixed, the *upper* bound on the scattering parameter l_ds follows
by direct substitution into the continuity equations (§3.1), and the
*lower* bound follows from the editing-copy analysis of §4.2: the number of
blocks copied to repair a seam is ``⌈l_seek_max / (2·l_lower)⌉``, so a
target copy budget implies a minimum l_lower.  §6.1 summarizes: "the
separation between consecutive blocks of a strand must be chosen within
these bounds."

The result is a :class:`PlacementPolicy` — the contract handed to the disk
allocator: put η units in each block, and place consecutive blocks so their
positioning delay lies in ``[scattering_lower, scattering_upper]``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import continuity
from repro.core.continuity import Architecture
from repro.core.symbols import (
    BlockModel,
    DiskParameters,
    DisplayDeviceParameters,
)
from repro.errors import InfeasibleError, ParameterError

__all__ = [
    "PlacementPolicy",
    "granularity_range",
    "max_granularity",
    "scattering_lower_bound",
    "derive_policy",
]


@dataclass(frozen=True)
class PlacementPolicy:
    """A derived storage contract for one medium on one device pair.

    Attributes
    ----------
    granularity:
        η — media units stored per disk block.
    block_bits:
        Size of each block in bits (η · unit size).
    scattering_lower:
        Minimum inter-block positioning delay the allocator may produce,
        seconds (from the §4.2 editing-copy budget; 0 when unconstrained).
    scattering_upper:
        Maximum inter-block positioning delay, seconds (from continuity).
    architecture:
        The retrieval architecture the bounds were derived for.
    concurrency:
        p used for the concurrent architecture (1 otherwise).
    """

    granularity: int
    block_bits: float
    scattering_lower: float
    scattering_upper: float
    architecture: Architecture
    concurrency: int = 1

    def __post_init__(self) -> None:
        if self.granularity < 1:
            raise ParameterError(
                f"granularity must be >= 1, got {self.granularity}"
            )
        if self.scattering_lower < 0:
            raise ParameterError(
                f"scattering_lower must be >= 0, got {self.scattering_lower}"
            )
        if self.scattering_upper < self.scattering_lower:
            raise InfeasibleError(
                f"empty scattering window: lower {self.scattering_lower:.6f} s"
                f" > upper {self.scattering_upper:.6f} s — the editing-copy "
                "budget and the continuity requirement are incompatible"
            )

    def admits(self, gap: float) -> bool:
        """True when an inter-block gap satisfies this policy."""
        return self.scattering_lower <= gap <= self.scattering_upper


def granularity_range(
    architecture: Architecture,
    device: DisplayDeviceParameters,
    p: int = 1,
) -> range:
    """Feasible granularities given the device's internal buffer (§3.3.4).

    Returns a ``range`` over valid η values (always starting at 1).
    """
    f = device.buffer_frames
    if architecture is Architecture.SEQUENTIAL:
        upper = f
    elif architecture is Architecture.PIPELINED:
        upper = f // 2
    elif architecture is Architecture.CONCURRENT:
        if p < 1:
            raise ParameterError(f"concurrency p must be >= 1, got {p}")
        upper = f // p
    else:
        raise ParameterError(f"unknown architecture: {architecture!r}")
    if upper < 1:
        raise InfeasibleError(
            f"device buffer of {f} frames cannot support "
            f"{architecture.value} retrieval"
            + (f" with p={p}" if architecture is Architecture.CONCURRENT else "")
        )
    return range(1, upper + 1)


def max_granularity(
    architecture: Architecture,
    device: DisplayDeviceParameters,
    p: int = 1,
) -> int:
    """Largest feasible η for the device buffer (top of §3.3.4's range).

    Larger blocks amortize seeks over more playback time, so the top of the
    range maximizes the scattering tolerance; policy derivation defaults
    to it.
    """
    feasible = granularity_range(architecture, device, p)
    return feasible[-1]


def scattering_lower_bound(disk: DiskParameters, copy_budget: int) -> float:
    """Minimum l_ds so that seam repair copies at most *copy_budget* blocks.

    Inverts the sparse-disk copy bound of Eq. (19),
    ``C_b = l_seek_max / (2·l_lower)``, giving
    ``l_lower = l_seek_max / (2·C_b)``.

    A ``copy_budget`` of 0 disables the constraint (returns 0.0): the
    caller accepts unbounded copying, so blocks may be packed contiguously.
    """
    if copy_budget < 0:
        raise ParameterError(f"copy_budget must be >= 0, got {copy_budget}")
    if copy_budget == 0:
        return 0.0
    return disk.seek_max / (2.0 * copy_budget)


def derive_policy(
    block: BlockModel,
    disk: DiskParameters,
    device: DisplayDeviceParameters,
    architecture: Architecture = Architecture.PIPELINED,
    p: int = 1,
    copy_budget: int = 0,
    granularity: int = None,
) -> PlacementPolicy:
    """Derive the full placement policy for one medium (§3.3.4 + §4.2).

    Parameters
    ----------
    block:
        A block model carrying the medium's unit rate and size; its
        granularity field is ignored unless *granularity* is None and the
        device-derived choice is wanted instead.
    copy_budget:
        Maximum blocks the §4.2 seam-repair algorithm may copy per edit on
        a sparsely occupied disk; sets the scattering lower bound
        (0 ⇒ no lower bound).
    granularity:
        Explicit η override; by default the largest value the device
        buffer admits.

    Raises
    ------
    InfeasibleError
        If no granularity in the device's range satisfies continuity, or
        if the copy budget forces a lower bound above the continuity upper
        bound.
    """
    if granularity is None:
        eta = max_granularity(architecture, device, p)
    else:
        feasible = granularity_range(architecture, device, p)
        if granularity not in feasible:
            raise ParameterError(
                f"granularity {granularity} outside device-feasible range "
                f"[1, {feasible[-1]}] for {architecture.value} retrieval"
            )
        eta = granularity
    sized = block.with_granularity(eta)
    upper = continuity.max_scattering(architecture, sized, disk, device, p)
    lower = scattering_lower_bound(disk, copy_budget)
    return PlacementPolicy(
        granularity=eta,
        block_bits=sized.block_bits,
        scattering_lower=lower,
        scattering_upper=upper,
        architecture=architecture,
        concurrency=p if architecture is Architecture.CONCURRENT else 1,
    )
