"""Exception hierarchy for the multimedia file system reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
install a single catch-all around file-system operations while still being
able to discriminate the interesting cases (admission rejection, allocation
failure) individually.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ParameterError",
    "InfeasibleError",
    "AdmissionError",
    "AdmissionRejected",
    "DiskError",
    "DiskFullError",
    "AllocationError",
    "ScatteringError",
    "AddressError",
    "DiskFaultError",
    "TransientReadError",
    "MediaDefectError",
    "HeadFailureError",
    "StorageError",
    "StrandError",
    "StrandImmutableError",
    "UnknownStrandError",
    "IndexCorruptionError",
    "RopeError",
    "UnknownRopeError",
    "IntervalError",
    "AccessDenied",
    "RequestError",
    "UnknownRequestError",
    "UnknownSessionError",
    "RequestStateError",
    "GarbageCollectionError",
    "SimulationError",
]


class ReproError(Exception):
    """Base class for every error raised by this library."""


# ---------------------------------------------------------------------------
# Analytical model errors
# ---------------------------------------------------------------------------

class ParameterError(ReproError, ValueError):
    """A model parameter is out of its physical domain (negative rate, ...)."""


def check_count(name: str, value, minimum: int = 1) -> None:
    """Refuse a count *name* (k, a buffer, a sampling gate) that is not an
    int >= *minimum*; a bool is not a count."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ParameterError(f"{name} must be an int >= {minimum}, got {value!r}")


def check_seconds(name: str, value) -> None:
    """Refuse a time *name* that is not a finite real >= 0 (nor a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
        0 <= value < float("inf")
    ):
        raise ParameterError(f"{name} must be a finite real >= 0, got {value!r}")


class InfeasibleError(ReproError):
    """The continuity equations admit no solution for the given hardware.

    Raised, for example, when asked for a scattering bound on a device whose
    transfer rate cannot keep up with the recording rate at any granularity
    (the paper's HDTV-on-a-1991-disk-array scenario).
    """


class AdmissionError(ReproError):
    """Base class for admission-control failures."""


class AdmissionRejected(AdmissionError):
    """A new request was refused because it would violate continuity.

    Carries the number of active requests and the computed maximum so the
    caller (or test) can verify the refusal happened at the analytic limit,
    and the typed *cause* — ``"capacity"`` (no headroom, Eq. 17) or
    ``"k_bound"`` (the solved k past the operating bound; *n_max* 0 if no
    head is left) — the values of the matching :class:`repro.api.RejectReason`
    members, so callers classify a refusal without reading its message.
    """

    def __init__(
        self, message: str, active: int = 0, n_max: int = 0,
        cause: str = "capacity",
    ):
        super().__init__(message)
        self.active = active
        self.n_max = n_max
        self.cause = cause


# ---------------------------------------------------------------------------
# Disk substrate errors
# ---------------------------------------------------------------------------

class DiskError(ReproError):
    """Base class for simulated-disk failures."""


class DiskFullError(DiskError):
    """No free space satisfies the request at all."""


class AllocationError(DiskError):
    """Free space exists but cannot satisfy the placement constraints."""


class ScatteringError(AllocationError):
    """No placement satisfies the scattering bounds [l_lower, l_upper]."""


class AddressError(DiskError, ValueError):
    """A sector/cylinder address is outside the disk geometry."""


class DiskFaultError(DiskError):
    """Base class for injected/simulated hardware faults.

    ``elapsed`` is the simulated time the failed access consumed before
    the fault surfaced (a CRC failure is only known after the full
    transfer); recovery layers must charge it to their clocks.
    """

    def __init__(self, message: str, slot: int = -1, elapsed: float = 0.0):
        super().__init__(message)
        self.slot = slot
        self.elapsed = elapsed


class TransientReadError(DiskFaultError):
    """A single access failed (soft error); an immediate retry may succeed."""


class MediaDefectError(DiskFaultError):
    """A latent sector error: the slot's media is bad and stays bad.

    Retrying the same slot is futile; recovery must skip or relocate the
    block.
    """


class HeadFailureError(DiskFaultError):
    """A whole mechanism (one head of an array) failed permanently.

    Every subsequent access to the drive fails fast; service must degrade
    to the surviving heads and revalidate admission.
    """

    def __init__(
        self,
        message: str,
        slot: int = -1,
        elapsed: float = 0.0,
        drive_index: int = 0,
    ):
        super().__init__(message, slot=slot, elapsed=elapsed)
        self.drive_index = drive_index


# ---------------------------------------------------------------------------
# Storage-manager (MSM) errors
# ---------------------------------------------------------------------------

class StorageError(ReproError):
    """Base class for Multimedia Storage Manager failures."""


class StrandError(StorageError):
    """Base class for strand-level failures."""


class StrandImmutableError(StrandError):
    """An attempt was made to mutate a finalized (immutable) strand."""


class UnknownStrandError(StrandError, KeyError):
    """The referenced strand ID does not exist (or was garbage collected)."""


class IndexCorruptionError(StrandError):
    """The 3-level block index failed an internal consistency check."""


# ---------------------------------------------------------------------------
# Rope-server (MRS) errors
# ---------------------------------------------------------------------------

class RopeError(ReproError):
    """Base class for Multimedia Rope Server failures."""


class UnknownRopeError(RopeError, KeyError):
    """The referenced rope ID does not exist."""


class IntervalError(RopeError, ValueError):
    """An edit interval is empty, inverted, or outside the rope's extent."""


class AccessDenied(RopeError, PermissionError):
    """The user lacks Play or Edit access to the rope."""


# ---------------------------------------------------------------------------
# Request lifecycle errors
# ---------------------------------------------------------------------------

class RequestError(ReproError):
    """Base class for PLAY/RECORD request-lifecycle failures."""


class UnknownRequestError(RequestError, KeyError):
    """The referenced request ID does not exist."""


class UnknownSessionError(RequestError, KeyError):
    """The referenced session ID is not in the serve result."""


class RequestStateError(RequestError):
    """The operation is invalid in the request's current state.

    For example RESUME on a request that was never paused, or STOP on a
    request that already completed.
    """


class GarbageCollectionError(StorageError):
    """An interest (reference-count) invariant was violated."""


# ---------------------------------------------------------------------------
# Simulation errors
# ---------------------------------------------------------------------------

class SimulationError(ReproError):
    """A record of simulated time is over its budget: a strict tracer /
    span tracer asked to hold more than its limit."""
